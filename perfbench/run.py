"""The repository benchmark: one workload, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measured phase runs in a fresh
worker process (``worker.py``) with ``jobs=1``, one BLAS thread and an
empty ``REPRO_CACHE_DIR`` under
``.perfbench_work/``, which is removed afterwards.  Phases repeat until
``--seconds`` of measurement have passed; each metric is the median over
the repetitions.  With ``--trace 1`` untraced and traced repetitions
alternate: the traced ones give the per-layer metrics, the pair gives the
tracing overhead.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the host fingerprint and the detail (sample
counts, check failures, every repetition).  ``--out DIR`` also writes the
whole record to ``DIR`` for ``diff.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOBS = 1
# One BLAS thread: on the 2-core reference host a 2-thread sgemm swung
# between 50 and 270 GFLOP/s from one process to the next, one thread
# held steady near 85-120.
BLAS_THREADS = 1
# A whole run must end within 180 s; a hung worker is killed before that.
RUN_BUDGET_S = 170

WORKLOADS = ("curve_ft_cold", "study_wt_warm", "serve_mixed")
STUDY_SETUPS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "test_error": "frac",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_rps": "1/s",
}


class PhaseError(RuntimeError):
    pass


def child_env(cache: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["REPRO_CACHE_DIR"] = str(cache)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_phase(spec: dict, cache: Path) -> dict:
    """Run one phase in a fresh worker and return its JSON result."""
    remaining = RUN_BUDGET_S - (time.perf_counter() - STARTED)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        env=child_env(cache),
        capture_output=True,
        text=True,
        timeout=max(remaining, 1.0),
    )
    if proc.returncode != 0:
        raise PhaseError(
            f"phase {spec['phase']} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(
    spec: dict, seconds: float, trace: bool, cache_for, min_reps: int = 1
) -> tuple[list, list]:
    """Fresh-process repetitions until ``seconds`` have passed.

    Returns ``(untraced, traced)``; with ``trace`` the two alternate and
    both lists get at least one repetition.
    """
    untraced, traced = [], []
    began = time.perf_counter()
    index = 0
    while (
        index < max(min_reps, 2 if trace else 1)
        or time.perf_counter() - began < seconds
    ):
        tracing = trace and index % 2 == 1
        out = run_phase({**spec, "trace": tracing}, cache_for(index))
        (traced if tracing else untraced).append(out)
        index += 1
    return untraced, traced


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; failed operations enter as ``inf``.

    A failed or refused operation misses any latency limit, so it sits
    above every success; between two of them numpy gives nan, read as inf.
    """
    import numpy as np

    with np.errstate(invalid="ignore"):
        value = float(np.percentile(values, q))
    return math.inf if math.isnan(value) else value


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def summarize_cells(reps: list[dict]) -> dict:
    """Curve/study latency: grid-cell service times, pooled over repetitions."""
    cells = [1e3 * s for r in reps for s in r["cell_s"]]
    cells += [math.inf] * sum(r["failed_ops"] for r in reps)
    return {
        "latency_p50_ms": percentile(cells, 50),
        "latency_p99_ms": percentile(cells, 99),
        "throughput_rps": statistics.median(len(r["cell_s"]) / r["wall_s"] for r in reps),
        "samples": len(cells),
    }


def run_curve(seed, seconds, trace, size, work, sgemm):
    spec = {"phase": "curve", "seed": seed, "size": size, "sgemm_gflops": sgemm}
    # Two repetitions at least: one curve outlasts a 15 s run, and its
    # shortest grid cell (~5 s of parent training) is the noisiest number.
    untraced, traced = repeat(
        spec, seconds, trace, lambda i: work / f"cache{i}", min_reps=2
    )
    metrics = {
        "setup_s": median_of(untraced, "setup_s"),
        "wall_s": median_of(untraced, "wall_s"),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        "test_error": median_of(untraced, "test_error"),
    }
    cells = summarize_cells(untraced)
    metrics.update({k: cells[k] for k in ("latency_p50_ms", "latency_p99_ms", "throughput_rps")})
    extra = {
        "latency_samples": cells["samples"],
        "wall_runs": [r["wall_s"] for r in untraced],
        "setup_runs": [r["setup_s"] for r in untraced],
    }
    return metrics, untraced, traced, extra


def run_study(seed, seconds, trace, size, work, sgemm):
    spec = {"phase": "study", "seed": seed, "size": size, "sgemm_gflops": sgemm}
    setups = [
        run_phase({**spec, "phase": "study_setup", "trace": False}, work / f"zoo{i}")
        for i in range(STUDY_SETUPS)
    ]
    # Every study reads the first zoo, as a user's repeated calls would.
    # Two repetitions at least: with one, a noisy stretch of the host moved
    # wall_s and the cell latencies by up to 20% across runs.
    untraced, traced = repeat(spec, seconds, trace, lambda i: work / "zoo0", min_reps=2)
    metrics = {
        "setup_s": median_of(setups, "setup_s"),
        "wall_s": median_of(untraced, "wall_s"),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        "test_error": median_of(untraced, "test_error"),
    }
    cells = summarize_cells(untraced)
    metrics.update({k: cells[k] for k in ("latency_p50_ms", "latency_p99_ms", "throughput_rps")})
    extra = {
        "latency_samples": cells["samples"],
        "wall_runs": [r["wall_s"] for r in untraced],
        "setup_runs": [s["setup_s"] for s in setups],
    }
    return metrics, untraced, traced, extra


def run_serve(seed, seconds, trace, size, work, sgemm):
    spec = {
        "phase": "serve", "seed": seed, "size": size, "sgemm_gflops": sgemm,
        "seconds": seconds, "trace": trace,
    }
    out = run_phase(spec, work / "cache0")
    latency = out.pop("latency_ms")
    metrics = {
        "setup_s": out["setup_s"],
        "wall_s": out["wall_s"],
        "peak_rss_mb": out["peak_rss_mb"],
        "test_error": out["test_error"],
        "latency_p50_ms": percentile(latency, 50),
        "latency_p99_ms": percentile(latency, 99),
        "throughput_rps": out["throughput_rps"],
    }
    # The serve worker alternates traced and untraced replays itself.
    traced = [
        {"wall_s": w, "per_layer": p}
        for w, p in zip(out.pop("traced_wall_s"), out.pop("per_layer"))
    ]
    extra = {
        "latency_samples": len(latency),
        "latency_beyond_p99": sum(x > metrics["latency_p99_ms"] for x in latency),
        "wall_runs": out.pop("replay_wall_s"),
        "setup_runs": out.pop("setup_runs"),
        "late_ms_p99_by_half": out.pop("late_ms_p99_by_half"),
    }
    return metrics, [out], traced, extra


RUNNERS = {
    "curve_ft_cold": run_curve,
    "study_wt_warm": run_study,
    "serve_mixed": run_serve,
}


def per_layer_metrics(untraced_wall: float, traced: list[dict]) -> dict:
    """Median of each per-layer metric over the traced repetitions."""
    names = traced[0]["per_layer"].keys()
    out = {n: statistics.median(t["per_layer"][n] for t in traced) for n in names}
    out["trace.overhead_frac"] = median_of(traced, "wall_s") / untraced_wall - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke size for the tests")
    parser.add_argument("--out", type=Path, help="also write the full record here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(HERE))
    from host import fingerprint
    from layers import PER_LAYER_UNITS

    seed = args.seed % 2**31
    host = fingerprint(ROOT, JOBS)
    sgemm = host["sgemm"]["gflops"]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, untraced, traced, extra = RUNNERS[args.workload](
            seed, args.seconds, bool(args.trace), args.size, work, sgemm
        )
    except (PhaseError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass

    reps = untraced + traced
    outcomes = [found for rep in reps for found in rep.get("checks", {}).values()]
    problems = sorted({p for found in outcomes for p in found})
    attempted = sum(rep.get("ops", 0) for rep in reps) + len(outcomes)
    failed = sum(rep.get("failed_ops", 0) for rep in reps) + sum(map(bool, outcomes))

    if args.trace:
        values = per_layer_metrics(metrics["wall_s"], traced)
        units = PER_LAYER_UNITS
    else:
        values, units = metrics, END_TO_END_UNITS
    result = {
        "correct": bool(outcomes) and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "error_rate": failed / attempted,
        "repetitions": len(untraced),
        "traced_repetitions": len(traced),
        "end_to_end": metrics,
        "check_problems": problems,
        **extra,
    }
    record = {"host": host, "detail": detail, "result": result}
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
        (args.out / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"host": host, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
