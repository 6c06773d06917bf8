"""Self time from nested spans, layer coverage, patch/unpatch, and the diff command's verdicts."""

from __future__ import annotations

import json
import math
import time

import diff
import layers
import run
from spans import Tracer


class TestSpans:
    def test_self_time_subtracts_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            time.sleep(0.01)
            with tracer.span("inner"):
                time.sleep(0.02)
        outer, = tracer.of("outer")
        inner, = tracer.of("inner")
        assert inner.parent is outer and inner.within("out")
        assert abs(outer.child - inner.duration) < 1e-9
        assert abs(outer.self_time + inner.self_time - outer.duration) < 1e-9
        assert 0.005 < outer.self_time < inner.duration

    def test_coverage_leaves_out_the_catch_all_grid_time(self):
        """Time the grid span holds outside every inner layer is unexplained."""
        tracer = Tracer()
        began = time.perf_counter()
        with tracer.span("experiments.grid", cells=1, failed=0, cell_s=0.0):
            time.sleep(0.03)
            with tracer.span("data.suite"):
                time.sleep(0.01)
        wall_s = time.perf_counter() - began
        m = layers.layer_metrics(tracer, wall_s, 100.0)
        data, = tracer.of("data.suite")
        assert abs(m["trace.layer_self_frac"] - data.duration / wall_s) < 1e-9
        assert m["trace.layer_self_frac"] < 0.5
        assert m["experiments.grid.self_s"] > 0.02

    def test_patch_function_rebinds_every_importer_and_restores(self):
        from repro.experiments import grid, prune_curves
        from repro.experiments.grid import dispatch_cells

        tracer = Tracer()
        tracer.patch_function(dispatch_cells, lambda fn: lambda *a, **k: "wrapped")
        assert grid.dispatch_cells() == "wrapped"
        assert prune_curves.dispatch_cells() == "wrapped"
        tracer.uninstall()
        assert grid.dispatch_cells is dispatch_cells
        assert prune_curves.dispatch_cells is dispatch_cells

    def test_patch_classmethod_and_restore(self):
        from repro.pruning.pipeline import PruneRun

        tracer = Tracer()
        calls = []

        def make(fn):
            def wrapper(cls, path):
                calls.append(cls)
                return "loaded"

            return wrapper

        original = vars(PruneRun)["load"]
        tracer.patch_attr(PruneRun, "load", make)
        assert PruneRun.load("x") == "loaded" and calls == [PruneRun]
        tracer.uninstall()
        assert vars(PruneRun)["load"] is original


def test_failures_count_as_missing_every_latency_limit():
    """A failed operation sits above every success in the latency pool."""
    assert run.percentile([1.0] * 99 + [math.inf], 99) == math.inf
    assert run.percentile([1.0] * 98 + [math.inf] * 2, 99) == math.inf
    assert run.percentile([1.0] * 99 + [math.inf], 50) == 1.0
    cells = run.summarize_cells([{"cell_s": [0.1, 0.2], "failed_ops": 1, "wall_s": 1.0}])
    assert cells["latency_p99_ms"] == math.inf and cells["samples"] == 3


def write_set(directory, values_by_seed, failed=0, metric="wall_s", workload="curve_ft_cold"):
    directory.mkdir()
    for seed, value in values_by_seed.items():
        record = {
            "detail": {"workload": workload, "seed": seed},
            "result": {
                "attempted": 10,
                "failed": failed,
                "metrics": {metric: {"value": value, "unit": "s"}},
            },
        }
        (directory / f"{seed}.json").write_text(json.dumps(record))
    return directory


def verdicts_of(capsys, tmp_path, base, change, change_failed=0):
    a = write_set(tmp_path / "a", base)
    b = write_set(tmp_path / "b", change, failed=change_failed)
    status = diff.main([str(a), str(b)])
    lines = capsys.readouterr().out.splitlines()
    verdict = {name: [l for l in lines if name in l][0].split()[-1]
               for name in ("wall_s", "error_rate")}
    return verdict, status


def verdict_of(capsys, tmp_path, base, change):
    verdict, status = verdicts_of(capsys, tmp_path, base, change)
    return verdict["wall_s"], status


class TestDiff:
    base = {s: 10.0 + 0.05 * (s % 3) for s in range(10)}

    def test_same_numbers_unchanged(self, capsys, tmp_path):
        assert verdict_of(capsys, tmp_path, self.base, self.base) == ("unchanged", 0)

    def test_slower_beyond_bound_is_worse(self, capsys, tmp_path):
        slow = {s: v * 1.3 for s, v in self.base.items()}
        assert verdict_of(capsys, tmp_path, self.base, slow) == ("worse", 1)

    def test_consistently_faster_is_improved(self, capsys, tmp_path):
        fast = {s: v * 0.8 for s, v in self.base.items()}
        assert verdict_of(capsys, tmp_path, self.base, fast) == ("improved", 0)

    def test_wide_spread_is_unresolved(self, capsys, tmp_path):
        noisy = {s: 10.0 * (0.6 if s % 2 else 1.4) for s in range(10)}
        assert verdict_of(capsys, tmp_path, self.base, noisy)[0] == "unresolved"

    def test_more_failures_is_worse_and_voids_a_gain(self, capsys, tmp_path):
        fast = {s: v * 0.8 for s, v in self.base.items()}
        verdict, status = verdicts_of(capsys, tmp_path, self.base, fast, change_failed=1)
        assert verdict == {"wall_s": "unresolved", "error_rate": "worse"}
        assert status == 1
