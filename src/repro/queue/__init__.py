"""Durable, lease-based work queue: the one executor behind every grid.

Every cell of a grid becomes one idempotent task in an append-only
JSONL **journal** on a (possibly shared) filesystem, and workers — the
driver itself at ``jobs=1``, local worker processes it supervises at
``jobs>1``, or ``python -m repro worker --queue <dir>`` on another host —
claim tasks via **leases** with heartbeat renewal.  A driver that dies
and re-runs re-attaches to the journal and resumes.

- :mod:`repro.queue.journal` — the durable record store: atomic,
  fsync'd appends under the per-artifact file lock, torn-tail-tolerant
  replay, incremental catch-up reads;
- :mod:`repro.queue.core` — :class:`WorkQueue`, the lease state machine:
  ``pending → leased → done``; a retryable ``fail`` or a ``reclaim``
  (lost worker, blown deadline) returns a task to pending after a seeded
  backoff until its lease budget is burned, anything else **quarantines**
  it with a :class:`~repro.resilience.failures.CellFailure`-compatible
  record;
- :mod:`repro.queue.worker` — the claim → execute → heartbeat →
  complete loop behind ``python -m repro worker``;
- :mod:`repro.queue.executor` — :func:`parallel_map` (re-exported by
  :mod:`repro.parallel`): enqueue the cells, run them inline or on
  supervised local workers, and return a ``list`` or
  :class:`~repro.queue.executor.MapOutcome`.

Execution is **at-least-once**: a lease reclaimed from a slow-but-alive
worker can make two workers run one cell concurrently.  That is safe by
construction — every cell is idempotent and publishes through the
memo/artifact layer's per-artifact file locks and atomic, fsync'd
replaces, so duplicated work converges on identical artifacts and the
journal's first ``done`` wins.  Time only enters through the injectable
clock seam from :mod:`repro.utils.clock` (wall clock in production,
:class:`~repro.utils.clock.VirtualClock` in tests), so the whole lease
lifecycle is testable without a single wall sleep.
"""

from repro.queue.core import (
    LEASE_SECONDS_ENV,
    QUEUE_DIR_ENV,
    Lease,
    TaskSpec,
    TaskView,
    WorkQueue,
)
from repro.queue.executor import parallel_map, resolve_queue_dir
from repro.queue.journal import Journal
from repro.queue.worker import WorkerReport, run_worker, task_fn_path

__all__ = [
    "Journal",
    "Lease",
    "LEASE_SECONDS_ENV",
    "QUEUE_DIR_ENV",
    "TaskSpec",
    "TaskView",
    "WorkQueue",
    "WorkerReport",
    "parallel_map",
    "resolve_queue_dir",
    "run_worker",
    "task_fn_path",
]
