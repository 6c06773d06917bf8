"""The three workloads, one phase per fresh worker process.

A phase imports the program, does its work through public entry points
and returns plain numbers.  Curve and study phases run in a fresh process
each, so ``cifar_like``'s ``lru_cache``, ``cached_suite`` and the
``memoize`` caches start as cold as in a user's ``python -m repro`` call.

- ``curve_ft_cold``: ``prune_curve_experiment(cifar, resnet20, ft)`` from an
  empty cache: parent training, the FT prune/retrain ladder, evaluation,
  artifact writes.  Train steps dominate it.
- ``study_wt_warm``: ``corruption_potential_experiment(cifar, resnet20,
  wt)`` on a zoo trained during set-up: no training, one eval cell per
  distribution (nominal, shifted, 16 corruptions), artifact reads.
- ``serve_mixed``: the serve-bench zoo (three pruned models, two input
  shapes, fixed-pad batch 32) under seeded open-loop lognormal arrivals on
  the virtual clock, each request timed from its scheduled arrival.
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
import time
from pathlib import Path

import numpy as np

import checks
import layers
from spans import Tracer

TASK, MODEL = "cifar", "resnet20"

# The curve/study scale: SMOKE's data size, width and batch size with a
# shorter recipe, so one artifact fits a run; the ladder still ends at 0.8.
PARENT_EPOCHS, RETRAIN_EPOCHS, TARGETS = 4, 2, (0.4, 0.8)

# curve_ft_cold trains base seed CURVE_SEEDS[--seed % 2].  On these two
# seeds alone of 100-113 (and none of 0-5) the compiled train plan of one
# retrain phase fails its gradient-parity validation on a BatchNorm weight
# and that phase steps on the autograd tape: +30% wall time, 2.7x peak
# RSS.  Drawing the training seed from all seeds made those metrics bimodal
# across runs; drawing it from the seeds on which the fallback happens
# keeps the defect in every run, so fixing it shows in wall_s and
# peak_rss_mb.  The two differ in test error (0.758, 0.704), not in wall
# time or peak RSS.
CURVE_SEEDS = (105, 106)

# serve_mixed.  The zoo is serve-bench's own (seed 0): the seed draws the
# traffic, not the models, so seeds differ only in what arrives when.
# Each of the 6 (model, shape) mixes is its own client stream of lognormal
# gaps, so every replay carries the same number of requests per mix; a
# single stream with mixes drawn at random moved p50 by 15% between seeds
# through the mix alone.  Replays of 600 requests pool to >= 1200 samples
# per run, so p99 has >= 10 samples beyond it.  12.5 requests/s offered:
# the server is busy about a quarter of the virtual time, so latency
# follows service time instead of amplifying the host's run-to-run speed
# drift through queueing (at 25/s p50 moved 20% across runs), and lateness
# does not grow from a replay's first half to its second.  Gap sigma 0.6
# rather than LoadProfile's 1.2: with 1.2 a few bursts set p99, which
# then moved 30% between seeds.
SERVE_ZOO_SEED = 0
SERVE_REQUESTS = 600
SERVE_MEAN_GAP_S = 0.08
SERVE_SIGMA = 0.6
SERVE_SETUPS = 3
SERVE_AUDIT_PER_MODEL = 8
SERVE_POOL = 256


def scale_for(size: str, seed: int):
    from repro.experiments import SMOKE

    common = dict(
        parent_epochs=PARENT_EPOCHS,
        retrain_epochs=RETRAIN_EPOCHS,
        target_ratios=TARGETS,
        n_repetitions=1,
        base_seed=seed,
    )
    if size == "tiny":
        return SMOKE.with_(
            n_train=200, n_test=64, image_size=8, sample_size=16,
            **{**common, "parent_epochs": 3, "retrain_epochs": 1},
        )
    return SMOKE.with_(**common)


def _start_trace(traced: bool) -> Tracer | None:
    if not traced:
        return None
    tracer = Tracer()
    layers.install(tracer)
    return tracer


def _stop_trace(tracer: Tracer | None, wall_s: float, sgemm: float, serve=None):
    if tracer is None:
        return None
    tracer.uninstall()
    return layers.layer_metrics(tracer, wall_s, sgemm, serve)


def _make_cache() -> None:
    Path(os.environ["REPRO_CACHE_DIR"]).mkdir(parents=True, exist_ok=False)


def _cell_seconds(timing) -> list[float]:
    return [c.seconds for c in timing.cells]


# ------------------------------------------------------------------ curve


def curve(spec: dict, t0: float) -> dict:
    from repro.experiments import ZooSpec, get_prune_run, make_model, prune_curve_experiment
    from repro.experiments.zoo import cached_suite

    _make_cache()
    setup_s = time.perf_counter() - t0
    scale = scale_for(spec["size"], CURVE_SEEDS[spec["seed"] % len(CURVE_SEEDS)])
    tracer = _start_trace(spec["trace"])
    t = time.perf_counter()
    result = prune_curve_experiment(TASK, MODEL, "ft", scale, jobs=1)
    wall_s = time.perf_counter() - t
    per_layer = _stop_trace(tracer, wall_s, spec["sgemm_gflops"])

    suite = cached_suite(TASK, scale)
    zoo_spec = ZooSpec(TASK, MODEL, "ft", 0)
    model = make_model(zoo_spec, suite, scale)
    granularity = checks.ft_granularity(model)
    get_prune_run(zoo_spec, scale).restore(model, -1)
    inputs = suite.normalizer()(suite.test_set().images[:32])
    found = {
        "ratios": checks.check_ratios(result.ratios, scale.target_ratios, granularity),
        "parent_error": checks.check_parent_error(result.parent_errors, suite.num_classes),
        "plan_parity": checks.check_plan_parity(model, inputs),
    }
    cells = _cell_seconds(result.timing)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "test_error": float(np.mean(result.errors)),
        "cell_s": cells,
        "ops": len(cells) + len(result.timing.failures),
        "failed_ops": len(result.timing.failures),
        "checks": found,
        "per_layer": per_layer,
    }


# ------------------------------------------------------------------ study


def study_setup(spec: dict, t0: float) -> dict:
    from repro.experiments import ZooSpec, build_zoo

    _make_cache()
    scale = scale_for(spec["size"], spec["seed"])
    build_zoo([ZooSpec(TASK, MODEL, "wt", 0)], scale, jobs=1)
    return {"setup_s": time.perf_counter() - t0}


def study(spec: dict, t0: float) -> dict:
    from repro.experiments import ZooSpec, corruption_potential_experiment, get_prune_run

    scale = scale_for(spec["size"], spec["seed"])
    tracer = _start_trace(spec["trace"])
    t = time.perf_counter()
    result = corruption_potential_experiment(TASK, MODEL, "wt", scale, jobs=1)
    wall_s = time.perf_counter() - t
    per_layer = _stop_trace(tracer, wall_s, spec["sgemm_gflops"])

    run = get_prune_run(ZooSpec(TASK, MODEL, "wt", 0), scale)
    nominal = result.curves["nominal"][0]
    errors = [np.mean(c[0].errors) for c in result.curves.values()]
    cells = _cell_seconds(result.timing)
    return {
        "wall_s": wall_s,
        "test_error": float(np.mean(errors)),
        "cell_s": cells,
        "ops": len(cells) + len(result.timing.failures),
        "failed_ops": len(result.timing.failures),
        "checks": {"nominal_matches_artifact": checks.check_nominal_matches_artifact(nominal, run)},
        "per_layer": per_layer,
    }


# ------------------------------------------------------------------ serve


def _image_pools(seed: int, shapes) -> dict:
    """Labelled synthetic images per row shape, so served answers have an error."""
    from repro.data.datasets import cifar_like

    pools = {}
    for shape in shapes:
        suite = cifar_like(seed=seed, n_train=1, n_test=SERVE_POOL, image_size=shape[-1])
        test = suite.test_set()
        pools[tuple(shape)] = (test.images.astype(np.float32), test.labels)
    return pools


def _arrivals(mixes, n_requests: int, seed: int) -> list:
    """Open-loop arrivals: one seeded lognormal stream per mix, merged.

    Each stream comes from ``generate_arrivals`` and is stretched by one
    factor so it spans exactly ``n_requests * SERVE_MEAN_GAP_S``: seeds
    then differ in burst pattern, not in offered load.
    """
    from repro.serve.loadgen import LoadProfile, generate_arrivals

    per_mix = n_requests // len(mixes)
    span = per_mix * len(mixes) * SERVE_MEAN_GAP_S
    merged = []
    for i, mix in enumerate(mixes):
        stream = generate_arrivals(
            LoadProfile(
                mixes=[mix],
                n_requests=per_mix,
                mean_interarrival=span / per_mix,
                sigma=SERVE_SIGMA,
                seed=seed * len(mixes) + i,
            )
        )
        stretch = span / stream[-1].t
        merged += [dataclasses.replace(a, t=a.t * stretch) for a in stream]
    return sorted(merged, key=lambda a: a.t)


def _replay(registry, arrivals, pools, rng) -> dict:
    """Drive one arrival schedule open-loop through a fresh server.

    Each request is submitted at its scheduled time if the server is free;
    when an engine call has pushed the clock past it, it is submitted late
    and that lateness counts toward its latency.
    """
    from repro.serve.clock import VirtualClock
    from repro.serve.server import PruneServer, ServeConfig

    server = PruneServer(
        registry,
        ServeConfig(max_wait=0.004, max_pending=512, default_deadline=0.5),
        VirtualClock(),
    )
    start = server.clock.now()
    records, labels, late = [], [], []
    t = time.perf_counter()
    for arrival in arrivals:
        due = start + arrival.t
        while True:
            next_due = server.next_due()
            if next_due is None or next_due > due:
                break
            server.clock.advance_to(next_due)
            server.pump()
        server.clock.advance_to(due)
        late.append(server.clock.now() - due)
        images, pool_labels = pools[tuple(arrival.mix.row_shape)]
        pick = rng.integers(0, len(images), size=arrival.rows)
        response = server.submit(arrival.mix.key, images[pick])
        records.append((arrival, images[pick], response))
        labels.append(pool_labels[pick])
        server.pump()
    server.run_until_idle()
    wall_s = time.perf_counter() - t
    ok = [i for i, (_, _, r) in enumerate(records) if r.status == "ok"]
    wrong = sum(
        int((records[i][2].value.argmax(axis=1) != labels[i]).sum()) for i in ok
    )
    metrics = server.metrics()
    return {
        "wall_s": wall_s,
        "virtual_s": server.clock.now() - start,
        # A request that did not end ok missed any latency limit.
        "latency_ms": [
            1e3 * (r.latency + lateness) if r.status == "ok" else math.inf
            for (_, _, r), lateness in zip(records, late)
        ],
        "late_ms": [1e3 * x for x in late],
        "requests": len(records),
        "ok": len(ok),
        "rows_ok": sum(len(labels[i]) for i in ok),
        "rows_wrong": wrong,
        "records": records,
        "batches": metrics["batches"],
        "occupancies": metrics["occupancies"],
    }


def serve(spec: dict, t0: float) -> dict:
    from repro.serve.loadgen import BENCH_SHAPES, TrafficMix, build_bench_registry

    seed = spec["seed"]
    pools = _image_pools(seed, BENCH_SHAPES)
    setup_times = []
    for _ in range(SERVE_SETUPS):
        t = time.perf_counter()
        registry = build_bench_registry(seed=SERVE_ZOO_SEED)
        for key in registry.keys():
            registry.warm(key, list(BENCH_SHAPES))
        setup_times.append(time.perf_counter() - t)
    mixes = [TrafficMix(key, shape) for key in registry.keys() for shape in BENCH_SHAPES]
    n_requests = 60 if spec["size"] == "tiny" else SERVE_REQUESTS

    replays, traced = [], []
    began = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - began < spec["seconds"] or (
        spec["trace"] and index < 2
    ):
        replay_seed = seed * 1000 + index
        tracing = spec["trace"] and index % 2 == 1
        evictions = registry.stats()["evictions"]
        tracer = _start_trace(tracing)
        out = _replay(
            registry,
            _arrivals(mixes, n_requests, replay_seed),
            pools,
            np.random.default_rng(replay_seed),
        )
        out["evictions"] = registry.stats()["evictions"] - evictions
        out["per_layer"] = _stop_trace(tracer, out["wall_s"], spec["sgemm_gflops"], out)
        (traced if tracing else replays).append(out)
        index += 1

    records = [r for out in replays + traced for r in out["records"]]
    found = {
        "served_parity": checks.check_served_parity(
            registry, records, SERVE_AUDIT_PER_MODEL, seed
        )
    }
    latency = [x for out in replays for x in out["latency_ms"]]
    requests = sum(out["requests"] for out in replays + traced)
    ok = sum(out["ok"] for out in replays + traced)
    return {
        "setup_s": statistics.median(setup_times),
        "setup_runs": setup_times,
        "wall_s": statistics.median(out["wall_s"] for out in replays),
        "replay_wall_s": [out["wall_s"] for out in replays],
        "traced_wall_s": [out["wall_s"] for out in traced],
        "test_error": sum(o["rows_wrong"] for o in replays) / sum(o["rows_ok"] for o in replays),
        "latency_ms": latency,
        "throughput_rps": sum(o["ok"] for o in replays) / sum(o["virtual_s"] for o in replays),
        "replays": len(replays),
        # A growing backlog would make the second half of each replay later.
        "late_ms_p99_by_half": [
            float(np.percentile([x for o in replays for x in half(o["late_ms"])], 99))
            for half in (lambda v: v[: len(v) // 2], lambda v: v[len(v) // 2 :])
        ],
        "ops": requests,
        "failed_ops": requests - ok,
        "checks": found,
        "per_layer": [out["per_layer"] for out in traced],
    }


PHASES = {"curve": curve, "study_setup": study_setup, "study": study, "serve": serve}
