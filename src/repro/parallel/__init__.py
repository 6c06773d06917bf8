"""Process-parallel execution.

The reproduction's dominant costs — training the model zoo and walking
(repetition × distribution) evaluation grids — are embarrassingly
parallel.  This package holds what every dispatch site composes:

- :func:`parallel_map` — the one grid executor: cells run as tasks of
  the durable work queue (:mod:`repro.queue.executor`), inline at
  ``jobs=1`` and on supervised local worker processes at ``jobs>1``,
  with per-cell retry and backoff, deadlines, crash recovery and
  ``on_error="collect"`` graceful degradation (see
  :mod:`repro.resilience`); ``REPRO_NUM_WORKERS`` / ``--jobs`` resolve
  the worker count (:func:`resolve_jobs`);
- :mod:`repro.parallel.locks` — per-artifact file locks and atomic
  write-temp-then-replace publication so concurrent workers never train
  the same artifact twice nor observe half-written archives;
- :mod:`repro.parallel.timing` — per-cell and per-grid wall-clock
  records surfaced in results and benchmarks.
"""

from repro.parallel.locks import (
    FileLock,
    LockTimeout,
    artifact_lock,
    atomic_write,
    fsync_dir,
    fsync_path,
)
from repro.parallel.timing import CellTiming, GridTiming, grid_timing, stopwatch

#: Names served from :mod:`repro.queue.executor`.  Imported on first use:
#: the queue itself imports :mod:`repro.parallel.locks`, and ``import
#: repro`` should not pay for the queue's dependencies.
_EXECUTOR = ("JOBS_ENV", "MapOutcome", "WorkerError", "parallel_map", "resolve_jobs")


def __getattr__(name: str):
    if name in _EXECUTOR:
        from repro.queue import executor

        return getattr(executor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FileLock",
    "LockTimeout",
    "artifact_lock",
    "atomic_write",
    "fsync_dir",
    "fsync_path",
    *_EXECUTOR,
    "CellTiming",
    "GridTiming",
    "grid_timing",
    "stopwatch",
]
