"""Per-layer timing: which public callables belong to which layer.

:func:`install` wraps each layer's public entry points with spans (see
:mod:`spans`); :func:`layer_metrics` reduces the recorded spans to the
per-layer metrics listed in ``BENCHMARK.json``.  Every ``*_s`` metric is
*self* time: the span's duration minus the spans nested inside it, so the
layers' times add up instead of double counting.

FLOP rates are computed, not measured by hardware counters: FLOPs come
from ``count_flops`` (forward, per image) times 3 for forward plus
backward, times the rows of the step.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

from spans import Span, Tracer

# Metric name -> unit, in report order.  Every traced run reports all of
# them; a layer a workload never enters reports zeros.
PER_LAYER_UNITS: dict[str, str] = {
    "infer.trainengine.steps": "count",
    "infer.trainengine.step_s": "s",
    "infer.trainengine.step_ms_p50": "ms",
    "infer.trainengine.step_ms_p90": "ms",
    "infer.trainengine.compiles": "count",
    "infer.trainengine.compile_s": "s",
    "infer.trainengine.fallback_steps": "count",
    "infer.trainengine.dense_gflops_per_s": "GFLOP/s",
    "infer.trainengine.useful_gflops_per_s": "GFLOP/s",
    "infer.trainengine.roofline_frac": "frac",
    "training.train_s": "s",
    "training.retrain_s": "s",
    "training.evaluate_s": "s",
    "training.compiled_peak_rss_mb": "MB",
    "pruning.prune_calls": "count",
    "pruning.prune_s": "s",
    "infer.engine.compiles": "count",
    "infer.engine.compile_s": "s",
    "infer.engine.logits_calls": "count",
    "infer.engine.logits_s": "s",
    "infer.engine.images_per_s": "img/s",
    "infer.engine.fallback_calls": "count",
    "infer.engine.plan_bytes": "B",
    "data.suite_s": "s",
    "data.corrupt_s": "s",
    "io.saves": "count",
    "io.save_s": "s",
    "io.save_bytes": "B",
    "io.loads": "count",
    "io.load_s": "s",
    "experiments.grid.cells": "count",
    "experiments.grid.failed_cells": "count",
    "experiments.grid.overhead_s": "s",
    "experiments.grid.self_s": "s",
    "serve.batches": "count",
    "serve.occupancy_mean": "rows",
    "serve.engine_s": "s",
    "serve.self_s": "s",
    "serve.late_ms_p50": "ms",
    "serve.late_ms_p99": "ms",
    "serve.evictions": "count",
    "host.sgemm_gflops": "GFLOP/s",
    "trace.layer_self_frac": "frac",
    "trace.overhead_frac": "frac",
}


def install(tracer: Tracer) -> None:
    """Wrap every layer's public callables; ``tracer.uninstall()`` undoes it."""
    from repro.data.datasets import TaskSuite
    from repro.experiments import grid, zoo
    from repro.infer.engine import InferenceEngine
    from repro.infer.grad import GradPlan
    from repro.infer.plan import CompiledPlan
    from repro.infer.trainengine import TrainEngine
    from repro.nn.flops import count_flops
    from repro.parallel import CellTiming
    from repro.pruning.base import PruneMethod
    from repro.pruning.pipeline import PruneRun
    from repro.serve.server import PruneServer
    from repro.training.trainer import Trainer
    from repro.utils import serialization

    # Forward FLOPs per image of the model each Trainer.train call trains,
    # (dense, useful); the masks only change between training phases.
    flops: dict[int, tuple[int, int]] = {}

    def timed(layer: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(layer):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    # A call compiled when it built a plan.  `compiled_for` alone cannot
    # tell: after a mask change the stale plan still answers true until
    # the step itself drops and rebuilds it.
    built = {GradPlan: 0, CompiledPlan: 0}

    def counting(cls):
        def make(fn):
            def init(self, *args, **kwargs):
                built[cls] += 1
                return fn(self, *args, **kwargs)

            return init

        return make

    for cls in built:
        tracer.patch_attr(cls, "__init__", counting(cls))

    def kind_of(before: int, after: int, compiled: bool, steady: str) -> str:
        return "compile" if after != before else steady if compiled else "fallback"

    fallback_steps = [0]  # train steps that ran on the autograd tape so far

    # ---------------------------------------------------- infer.trainengine
    def make_step(fn):
        def step(self, x, y):
            before = built[GradPlan]
            with tracer.span("infer.trainengine", rows=len(x)) as span:
                out = fn(self, x, y)
            span.fields["kind"] = kind_of(
                before, built[GradPlan], self.compiled_for(x, y), "step"
            )
            fallback_steps[0] += span.fields["kind"] == "fallback"
            span.fields["flops"] = flops.get(id(self.model))
            return out

        return step

    tracer.patch_attr(TrainEngine, "step", make_step)

    # ------------------------------------------------------------- training
    def make_train(fn):
        def train(self, *args, **kwargs):
            shape = self.task.input_shape
            flops[id(self.model)] = (
                count_flops(self.model, shape, dense=True),
                count_flops(self.model, shape, dense=False),
            )
            fell_back = fallback_steps[0]
            reset_peak_rss()
            with tracer.span("training.train") as span:
                out = fn(self, *args, **kwargs)
            span.fields["peak_rss_mb"] = peak_rss_mb()
            span.fields["fell_back"] = fallback_steps[0] != fell_back
            return out

        return train

    tracer.patch_attr(Trainer, "train", make_train)
    tracer.patch_attr(Trainer, "retrain", timed("training.retrain"))
    tracer.patch_attr(Trainer, "evaluate", timed("training.evaluate"))

    # -------------------------------------------------------------- pruning
    tracer.patch_attr(PruneMethod, "prune", timed("pruning"))

    # --------------------------------------------------------- infer.engine
    def make_logits(fn):
        def logits(self, images, *args, **kwargs):
            before = built[CompiledPlan]
            with tracer.span("infer.engine", rows=len(images)) as span:
                out = fn(self, images, *args, **kwargs)
            span.fields["kind"] = kind_of(
                before, built[CompiledPlan], self.compiled_for(images), "steady"
            )
            span.fields["engine"] = id(self)
            span.fields["plan_bytes"] = sum(self.plan_stats().values())
            return out

        return logits

    tracer.patch_attr(InferenceEngine, "logits", make_logits)

    # ----------------------------------------------------------------- data
    tracer.patch_function(zoo.make_suite, timed("data.suite"))
    for name in ("train_set", "test_set", "shifted_test_set", "normalizer"):
        tracer.patch_attr(TaskSuite, name, timed("data.suite"))
    tracer.patch_attr(TaskSuite, "corrupted_test_set", timed("data.corrupt"))

    # ------------------------------------------------------------------- io
    def make_save(fn):
        def save(*args, **kwargs):
            with tracer.span("io.save") as span:
                path = fn(*args, **kwargs)
            span.fields["bytes"] = Path(path).stat().st_size
            return path

        return save

    tracer.patch_attr(PruneRun, "save", make_save)
    tracer.patch_function(serialization.save_state, make_save)
    tracer.patch_attr(PruneRun, "load", timed("io.load"))
    tracer.patch_function(serialization.try_load_state, timed("io.load"))

    # ------------------------------------------------------ experiments grid
    def make_grid(fn):
        def run_grid(*args, **kwargs):
            with tracer.span("experiments.grid") as span:
                out = fn(*args, **kwargs)
            if hasattr(out, "cells"):  # build_zoo -> GridTiming
                cells, failures = out.cells, out.failures
            else:  # dispatch_cells -> (results, failures)
                results, failures = out
                cells = [
                    part
                    for result in results
                    if result is not None
                    for part in result
                    if isinstance(part, CellTiming)
                ]
            span.fields["cells"] = len(cells) + len(failures)
            span.fields["failed"] = len(failures)
            span.fields["cell_s"] = sum(c.seconds for c in cells)
            return out

        return run_grid

    tracer.patch_function(zoo.build_zoo, make_grid)
    tracer.patch_function(grid.dispatch_cells, make_grid)

    # ---------------------------------------------------------------- serve
    for name in ("submit", "pump", "run_until_idle"):
        tracer.patch_attr(PruneServer, name, timed("serve"))


def reset_peak_rss() -> None:
    """Restart the process's peak-RSS mark (Linux); a no-op elsewhere."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss`; 0 where unknown."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _self(spans: list[Span]) -> float:
    return sum(s.self_time for s in spans)


def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    sgemm_gflops: float,
    serve: dict | None = None,
) -> dict[str, float]:
    """Reduce the recorded spans to the :data:`PER_LAYER_UNITS` metrics.

    ``wall_s`` is the measured call the spans sit under; ``serve`` carries
    the server/registry snapshots and generator lateness of the serve
    workload (counts the program keeps itself).
    """
    m: dict[str, float] = {}

    steps = tracer.of("infer.trainengine")
    steady = [s for s in steps if s.fields["kind"] == "step"]
    compiles = [s for s in steps if s.fields["kind"] == "compile"]
    steady_s = _self(steady)
    dense = sum(3 * s.fields["flops"][0] * s.fields["rows"] for s in steady if s.fields["flops"])
    useful = sum(3 * s.fields["flops"][1] * s.fields["rows"] for s in steady if s.fields["flops"])
    dense_rate = dense / steady_s / 1e9 if steady_s > 0 else 0.0
    m["infer.trainengine.steps"] = len(steps)
    m["infer.trainengine.step_s"] = steady_s
    m["infer.trainengine.step_ms_p50"] = _percentile([1e3 * s.self_time for s in steady], 50)
    m["infer.trainengine.step_ms_p90"] = _percentile([1e3 * s.self_time for s in steady], 90)
    m["infer.trainengine.compiles"] = len(compiles)
    m["infer.trainengine.compile_s"] = _self(compiles)
    m["infer.trainengine.fallback_steps"] = sum(s.fields["kind"] == "fallback" for s in steps)
    m["infer.trainengine.dense_gflops_per_s"] = dense_rate
    m["infer.trainengine.useful_gflops_per_s"] = useful / steady_s / 1e9 if steady_s > 0 else 0.0
    m["infer.trainengine.roofline_frac"] = dense_rate / sgemm_gflops if sgemm_gflops > 0 else 0.0

    # A train() nested in retrain() is retraining (Algorithm 1, l.6).
    trains = tracer.of("training.train")
    retrain_inner = [s for s in trains if s.parent is not None and s.parent.layer == "training.retrain"]
    m["training.train_s"] = _self([s for s in trains if s not in retrain_inner])
    m["training.retrain_s"] = _self(tracer.of("training.retrain") + retrain_inner)
    m["training.evaluate_s"] = _self(tracer.of("training.evaluate"))
    # Peak RSS of the training phases that stayed on compiled plans: a
    # phase that fell back to the tape would hide their memory behind its own.
    compiled = [s.fields["peak_rss_mb"] for s in trains if not s.fields["fell_back"]]
    m["training.compiled_peak_rss_mb"] = max(compiled, default=0.0)

    prunes = tracer.of("pruning")
    m["pruning.prune_calls"] = sum(not s.within("pruning") for s in prunes)
    m["pruning.prune_s"] = _self(prunes)

    logits = tracer.of("infer.engine")
    ready = [s for s in logits if s.fields["kind"] == "steady"]
    built = [s for s in logits if s.fields["kind"] == "compile"]
    ready_s = _self(ready)
    plan_bytes = {s.fields["engine"]: s.fields["plan_bytes"] for s in logits}
    m["infer.engine.compiles"] = len(built)
    m["infer.engine.compile_s"] = _self(built)
    m["infer.engine.logits_calls"] = len(logits)
    m["infer.engine.logits_s"] = ready_s
    m["infer.engine.images_per_s"] = sum(s.fields["rows"] for s in ready) / ready_s if ready_s > 0 else 0.0
    m["infer.engine.fallback_calls"] = sum(s.fields["kind"] == "fallback" for s in logits)
    m["infer.engine.plan_bytes"] = sum(plan_bytes.values())

    m["data.suite_s"] = _self(tracer.of("data.suite"))
    m["data.corrupt_s"] = _self(tracer.of("data.corrupt"))

    saves = tracer.of("io.save")
    loads = tracer.of("io.load")
    outer_saves = [s for s in saves if not s.within("io.")]
    m["io.saves"] = len(outer_saves)
    m["io.save_s"] = _self(saves)
    m["io.save_bytes"] = sum(s.fields["bytes"] for s in outer_saves)
    m["io.loads"] = sum(not s.within("io.") for s in loads)
    m["io.load_s"] = _self(loads)

    grids = tracer.of("experiments.grid")
    outer_grids = [s for s in grids if not s.within("experiments.grid")]
    m["experiments.grid.cells"] = sum(s.fields["cells"] for s in grids)
    m["experiments.grid.failed_cells"] = sum(s.fields["failed"] for s in grids)
    m["experiments.grid.overhead_s"] = sum(s.duration - s.fields["cell_s"] for s in outer_grids)
    m["experiments.grid.self_s"] = _self(grids)

    serve = serve or {}
    occupancies = serve.get("occupancies", [])
    lateness = serve.get("late_ms", [])
    m["serve.batches"] = serve.get("batches", 0)
    m["serve.occupancy_mean"] = statistics.fmean(occupancies) if occupancies else 0.0
    m["serve.engine_s"] = sum(s.duration for s in logits if s.within("serve"))
    m["serve.self_s"] = _self(tracer.of("serve"))
    m["serve.late_ms_p50"] = _percentile(lateness, 50)
    m["serve.late_ms_p99"] = _percentile(lateness, 99)
    m["serve.evictions"] = serve.get("evictions", 0)

    m["host.sgemm_gflops"] = sgemm_gflops
    # Share of the measured call the layers explain.  The grid and serve
    # spans enclose the whole call, so their self time is whatever no inner
    # layer claimed; it counts as unexplained.
    catch_all = ("experiments.grid", "serve")
    covered = sum(s.self_time for s in tracer.spans if s.layer not in catch_all)
    m["trace.layer_self_frac"] = covered / wall_s if wall_s > 0 else 0.0
    return {name: float(m[name]) for name in PER_LAYER_UNITS if name in m}
