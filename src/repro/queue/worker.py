"""The queue worker: claim → execute → heartbeat → publish → complete.

One worker is one process (or, under ``jobs=1``, an inline loop in the
driver) pointed at a queue directory.  Its loop:

1. reclaim any expired leases it can see (so a fleet of workers heals
   itself even when the driver that enqueued the grid is gone);
2. claim the oldest pending task; if none is pending, exit when the
   queue is drained, otherwise idle briefly and look again;
3. run the task function with a background **heartbeat** renewing the
   lease at a third of its duration, so a slow cell is distinguishable
   from a dead worker;
4. publish the result atomically, then mark the task done — in that
   order, so a crash between the two re-runs an idempotent cell rather
   than recording a ``done`` with no result.

A task function that raises records a ``fail`` (the queue re-pends a
retryable failure after a backoff and quarantines anything else); a
worker that dies records *nothing*, which is the point — its lease
expires (or the supervising driver sees the process exit) and the task
is reclaimed.  Chaos injects exactly that death, SIGKILL mid-lease
(:func:`repro.resilience.chaos.on_queue_task`), plus the per-cell
faults of :func:`repro.resilience.chaos.on_worker_cell`.
"""

from __future__ import annotations

import importlib
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import observe
from repro.queue.core import QUARANTINED, Lease, WorkQueue, default_worker_id
from repro.resilience import chaos
from repro.resilience.retry import is_retryable
from repro.utils.clock import Clock


def task_fn_path(fn: Callable) -> str:
    """``"module:qualname"`` for a queue-executable callable.

    The journal stores functions by import path so any worker process can
    resolve them; that rules out lambdas, closures, and methods —
    checked here eagerly with a round-trip import.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise ValueError(
            f"queue task functions must be module-level callables; "
            f"{fn!r} ({module}:{qualname or '?'}) cannot be imported by name"
        )
    path = f"{module}:{qualname}"
    if resolve_task_fn(path) is not fn:
        raise ValueError(
            f"{path} does not resolve back to {fn!r}; "
            "queue task functions must be importable module-level callables"
        )
    return path


def resolve_task_fn(path: str) -> Callable:
    """Import ``"module:qualname"`` back into a callable."""
    module_name, _, qualname = path.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"bad task function path {path!r}")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ValueError(f"{path} resolved to non-callable {obj!r}")
    return obj


class _Heartbeat:
    """Background lease renewal while a task runs (real-clock workers).

    Renews at a third of the lease duration so two consecutive misses
    still leave slack before expiry.  Virtual-clock runs skip the thread
    entirely — time there only moves when the test says so, making a
    renewal race impossible and the thread pure nondeterminism.
    """

    def __init__(self, queue: WorkQueue, lease: Lease):
        self.queue = queue
        self.lease = lease
        self.lost = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "_Heartbeat":
        if not self.queue.clock.virtual:
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _run(self) -> None:
        interval = max(self.queue.lease_seconds / 3.0, 0.05)
        while not self._stop.wait(interval):
            try:
                if self.queue.renew(self.lease) is None:
                    # Lease lost (expired + reclaimed).  Keep computing —
                    # the cell is idempotent — but stop renewing a lease
                    # the journal no longer honours.
                    self.lost = True
                    observe.incr("queue.lost_leases")
                    return
            except Exception:
                # A transient lock/journal error must not kill the task
                # thread; the next beat (or lease expiry) sorts it out.
                continue


@dataclass
class WorkerReport:
    """What one worker-loop invocation did, for logs and tests."""

    worker: str
    completed: int = 0
    failed: int = 0
    reclaimed: int = 0
    duplicate: int = 0  # completions the journal rejected (someone beat us)
    keys: list[str] = field(default_factory=list)

    @property
    def tasks(self) -> int:
        return self.completed + self.failed


def run_worker(
    queue: WorkQueue | str | Path,
    *,
    worker_id: str | None = None,
    clock: Clock | None = None,
    max_tasks: int | None = None,
    idle_seconds: float = 0.0,
    poll_seconds: float = 0.2,
    reraise: bool = False,
) -> WorkerReport:
    """Drain tasks from a queue until it is empty (or budgets run out).

    ``queue`` is a :class:`WorkQueue` or a queue directory.  The loop
    exits when every task is terminal; ``idle_seconds > 0`` additionally
    keeps the worker alive that long waiting for *new* work after a
    drain, which is how standing workers (``python -m repro worker
    --idle 30``) serve several grids back to back.  ``max_tasks`` bounds
    how many tasks this call may run (tests use it to interleave
    workers deterministically).  ``reraise`` re-raises a task's own
    exception once the failure quarantines it (the inline ``jobs=1``
    worker of a raise-mode grid).
    """
    if not isinstance(queue, WorkQueue):
        queue = WorkQueue(queue, clock=clock)
    worker = worker_id or default_worker_id()
    report = WorkerReport(worker=worker)
    observe.event("queue.worker", worker=worker, directory=str(queue.directory))
    idle_since: float | None = None
    while True:
        if max_tasks is not None and report.tasks >= max_tasks:
            break
        report.reclaimed += len(queue.reclaim_expired())
        lease = queue.claim(worker=worker)
        if lease is None:
            if queue.drained():
                if idle_seconds <= 0:
                    break
                now = queue.clock.now()
                if idle_since is None:
                    idle_since = now
                elif now - idle_since >= idle_seconds:
                    break
            # Leased tasks are still in flight elsewhere (or new work may
            # arrive): wait for expiry/arrival instead of spinning.
            queue.clock.sleep(max(poll_seconds, 0.01))
            continue
        idle_since = None
        _run_one(queue, lease, report, reraise)
    return report


def _run_one(
    queue: WorkQueue, lease: Lease, report: WorkerReport, reraise: bool
) -> None:
    """Execute one leased task through heartbeat, publish, and complete."""
    started = queue.clock.now()
    try:
        # The worst moment to die: the lease is journaled and live, the
        # task not yet run.  Chaos SIGKILLs here to exercise reclamation.
        chaos.on_queue_task(lease.key, attempt=lease.attempt)
        if queue.has_result(lease.key):
            # A previous holder published but died before ``done`` (or its
            # ``done`` lost the race).  The artifact exists; re-running an
            # idempotent cell would only reproduce it byte for byte.
            value = queue.load_result(lease.key)
        else:
            fn = resolve_task_fn(lease.fn)
            with _Heartbeat(queue, lease):
                chaos.on_worker_cell(lease.key, attempt=lease.attempt)
                value = fn(lease.payload)
            queue.publish_result(lease.key, value)
    except BaseException as exc:  # noqa: BLE001 — every failure must journal
        status = queue.fail(
            lease,
            (type(exc).__name__, str(exc), traceback.format_exc()),
            retryable=is_retryable(exc),
        )
        report.failed += 1
        observe.event(
            "queue.task_failed",
            key=lease.key,
            worker=lease.worker,
            error=type(exc).__name__,
            status=status,
        )
        if not isinstance(exc, Exception) or (reraise and status == QUARANTINED):
            raise  # KeyboardInterrupt / SystemExit always propagate
        return
    seconds = queue.clock.now() - started
    if queue.complete(lease, seconds=seconds):
        report.completed += 1
        report.keys.append(lease.key)
    else:
        report.duplicate += 1
        observe.incr("queue.duplicate_completions")
