"""Serial vs parallel zoo building: scaling, determinism, BENCH_parallel.json.

Builds the same micro zoo twice into fresh cache directories — once with
``jobs=1`` (the inline queue worker in the calling process) and once with
``jobs=min(4, CPUs)`` supervised worker processes — and

- asserts the two runs publish byte-identical artifact keys and contents,
- emits ``BENCH_parallel.json`` at the repo root with the measured wall
  clocks, the speedup and the host that produced them (core count,
  numpy, BLAS and its thread count),
- asserts the >= 2x speedup target only on hosts with >= 4 CPU cores
  (with fewer cores the workers time-slice and a 2x wall-clock speedup
  is physically impossible).

Run it with ``PYTHONPATH=src python -m pytest -q -s
benchmarks/test_bench_parallel_scaling.py``.
"""

from __future__ import annotations

import ctypes
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.experiments import SMOKE, ZooSpec
from repro.experiments import zoo
from repro.utils.serialization import load_state

REPO_ROOT = Path(__file__).resolve().parent.parent
TARGET_JOBS = 4
PARALLEL_JOBS = min(TARGET_JOBS, os.cpu_count() or 1)
SPEEDUP_TARGET = 2.0

# Small enough to finish in seconds serially, enough cells (2 parents +
# 4 prune runs) that a 4-worker pool has real work to spread.
BENCH_SCALE = SMOKE.with_(
    n_train=64, n_test=32, image_size=8, num_classes=4, base_width=2,
    parent_epochs=1, retrain_epochs=1, target_ratios=(0.3, 0.6),
    n_repetitions=2,
)

BENCH_SPECS = [
    ZooSpec("cifar", "resnet20", method, rep)
    for method in ("wt", "ft")
    for rep in range(BENCH_SCALE.n_repetitions)
]


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS runs with, if it can be asked (Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        libs = [ctypes.CDLL(path) for path in libs]
    except OSError:
        return None
    for lib in libs:
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _host() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


def _timed_build(cache_dir: Path, jobs: int):
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    zoo.cached_suite.cache_clear()
    start = time.perf_counter()
    timing = zoo.build_zoo(BENCH_SPECS, BENCH_SCALE, jobs=jobs)
    elapsed = time.perf_counter() - start
    return elapsed, timing, {p.name: p for p in cache_dir.glob("*.npz")}


def test_bench_parallel_scaling(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # restored after

    serial_s, serial_timing, serial_artifacts = _timed_build(
        tmp_path / "serial", jobs=1
    )
    parallel_s, parallel_timing, parallel_artifacts = _timed_build(
        tmp_path / "parallel", jobs=PARALLEL_JOBS
    )

    # Determinism: the worker count must never leak into the artifacts.
    assert sorted(serial_artifacts) == sorted(parallel_artifacts)
    for name in serial_artifacts:
        arrays_s, meta_s = load_state(serial_artifacts[name])
        arrays_p, meta_p = load_state(parallel_artifacts[name])
        assert meta_s == meta_p
        assert sorted(arrays_s) == sorted(arrays_p)
        for key in arrays_s:
            np.testing.assert_array_equal(arrays_s[key], arrays_p[key])

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    report = {
        "cells": len(BENCH_SPECS) + BENCH_SCALE.n_repetitions,  # + parents
        "jobs": PARALLEL_JOBS,
        "cpu_count": os.cpu_count(),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(speedup, 3),
        # Cache-aware rollups from the GridTiming returned by build_zoo:
        # both runs hit cold caches here, so hit rates should be 0 and the
        # grid speedup reflects computed cells only.
        "serial_cache_hit_rate": round(serial_timing.cache_hit_rate, 3),
        "parallel_cache_hit_rate": round(parallel_timing.cache_hit_rate, 3),
        "parallel_grid_speedup": round(parallel_timing.speedup, 3),
        "parallel_throughput_cells_per_s": round(parallel_timing.throughput, 3),
        "artifacts_identical": True,
        "host": _host(),
    }
    (REPO_ROOT / "BENCH_parallel.json").write_text(json.dumps(report, indent=2) + "\n")
    print()
    print(f"BENCH_parallel: serial {serial_s:.2f}s, "
          f"jobs={PARALLEL_JOBS} {parallel_s:.2f}s, speedup {speedup:.2f}x "
          f"on {os.cpu_count()} cores")

    if PARALLEL_JOBS == TARGET_JOBS:
        assert speedup >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x at jobs={PARALLEL_JOBS}, "
            f"got {speedup:.2f}x"
        )
