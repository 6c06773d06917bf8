"""Pre-build the cached model zoo used by the benchmark suite.

Running the benchmarks cold trains every (model, method, repetition)
triple, which takes roughly an hour on one CPU core.  This script performs
that training up front (idempotently — cached artifacts are skipped) so
``pytest benchmarks/ --benchmark-only`` spends its time on the paper's
analyses rather than on SGD.

The build fans out across worker processes: parents first, then prune
runs, with per-artifact file locks so concurrent invocations are safe.
Both phases run on the durable work queue; a pinned ``--queue-dir`` on a
shared filesystem lets ``python -m repro worker`` processes on other
hosts help drain them.

Usage::

    python benchmarks/build_zoo.py [--jobs N] [--on-error collect]
    python benchmarks/build_zoo.py --resume <failure-manifest.json>
    python benchmarks/build_zoo.py --queue-dir /shared/q

``--jobs 0`` means "all CPUs"; the default honours ``REPRO_NUM_WORKERS``
and falls back to serial execution.  With ``--on-error collect`` a dead
cell (after its retries) no longer aborts the build: surviving cells
complete, the failures are persisted as a manifest in the cache dir, and
``--resume`` re-dispatches exactly those cells against the warm cache.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import SMOKE, ZooSpec, build_zoo

# Every zoo artifact any benchmark touches, cheapest first.
BENCH_ZOO: list[tuple[str, str, str, int, bool]] = [
    # (task, model, method, repetitions, robust)
    ("cifar", "resnet20", "wt", 2, False),
    ("cifar", "resnet20", "sipp", 2, False),
    ("cifar", "resnet20", "ft", 2, False),
    ("cifar", "resnet20", "pfp", 2, False),
    ("cifar", "resnet20", "lowrank", 2, False),
    ("cifar", "resnet20", "uniform", 2, False),
    ("cifar", "resnet20", "random", 2, False),
    ("cifar", "resnet20", "wt", 2, True),
    ("cifar", "resnet20", "ft", 2, True),
    ("cifar", "vgg16", "wt", 2, False),
    ("cifar", "vgg16", "ft", 2, False),
    ("cifar", "wrn16_8", "wt", 2, False),
    ("cifar", "wrn16_8", "ft", 2, False),
    ("imagenet", "resnet18", "wt", 1, False),
    ("imagenet", "resnet18", "ft", 1, False),
    ("voc", "deeplab_small", "wt", 1, False),
    ("voc", "deeplab_small", "ft", 1, False),
    ("voc", "deeplab_small", "pfp", 1, False),
]


def bench_zoo_specs() -> list[ZooSpec]:
    """The flat spec list behind ``BENCH_ZOO``."""
    return [
        ZooSpec(task, model, method, rep, robust)
        for task, model, method, reps, robust in BENCH_ZOO
        for rep in range(reps)
    ]


def add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """The fault-tolerance knobs shared by the zoo CLI surfaces."""
    parser.add_argument(
        "--on-error",
        choices=["raise", "collect"],
        default=None,
        help="collect: finish surviving cells and persist a failure manifest "
        "instead of aborting on the first dead cell (default: raise)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retry budget per cell for transient failures "
        "(default: REPRO_MAX_RETRIES or 2)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="per-cell deadline in seconds; a hung worker is replaced "
        "(default: REPRO_CELL_TIMEOUT or no deadline)",
    )
    parser.add_argument(
        "--resume",
        action="append",
        default=None,
        metavar="MANIFEST",
        help="re-dispatch only the failed cells recorded in this failure "
        "manifest (from a previous --on-error collect run); repeatable — "
        "several manifests are merged and deduplicated",
    )
    parser.add_argument(
        "--queue-dir",
        default=None,
        metavar="DIR",
        help="work-queue directory, shared with `python -m repro worker` "
        "processes on other hosts (default: REPRO_QUEUE_DIR, or derived "
        "per grid)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pre-train the cached model zoo")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (0 = all CPUs; default: REPRO_NUM_WORKERS or 1)",
    )
    add_resilience_flags(parser)
    args = parser.parse_args(argv)

    if args.resume:
        from repro.resilience import resume_zoo

        try:
            timing = resume_zoo(
                args.resume,
                SMOKE,
                jobs=args.jobs,
                on_error=args.on_error or "collect",
                max_retries=args.max_retries,
                cell_timeout=args.cell_timeout,
                queue_dir=args.queue_dir,
            )
        except FileNotFoundError:
            missing = ", ".join(args.resume)
            print(f"error: no failure manifest at {missing}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        timing = build_zoo(
            bench_zoo_specs(),
            SMOKE,
            jobs=args.jobs,
            on_error=args.on_error or "raise",
            max_retries=args.max_retries,
            cell_timeout=args.cell_timeout,
            queue_dir=args.queue_dir,
        )
    for cell in timing.cells:
        status = "cached" if cell.cached else "built"
        print(f"{cell.key}: {status} in {cell.seconds:.1f}s", flush=True)
    print(timing.summary())
    if timing.failures:
        for failure in timing.failures:
            print(f"FAILED {failure.describe()}", flush=True)
        print(f"failure manifest: {timing.manifest_path}")
        print(f"resume with: python -m repro zoo --resume {timing.manifest_path}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
