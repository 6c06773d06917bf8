""":func:`parallel_map` — the one grid executor, built on the work queue.

Every grid (zoo builds, prune curves, the prune-potential studies) maps a
module-level function over independent, keyed cells.  Each cell becomes
one task of a :class:`~repro.queue.core.WorkQueue`, so one retry,
deadline and failure path serves them all:

- **resume**: the queue directory is derived from the function path, the
  cell keys and the payloads, so re-running the identical grid after a
  driver crash re-attaches to its journal, serves finished cells from
  their published results and re-arms quarantined ones;
- ``jobs=1`` runs one inline worker in the calling process — no
  subprocess, and in raise mode the cell's own exception propagates —
  which is both the debug path and what the benchmark runs;
- ``jobs>1`` starts local worker processes (fork where the platform has
  it, otherwise spawn) that each open the queue directory and drain it.
  The driver supervises them: a worker that dies has its lease
  reclaimed at once (``crash``), and a cell that outlives ``timeout`` has
  its worker terminated and replaced (``timeout``);
- only retryable failures (:mod:`repro.resilience.retry`: transient
  error types, a lost worker, a blown deadline) are retried, after a
  seeded backoff; a deterministic error fails after one attempt;
- **extra hosts** can help: ``python -m repro worker --queue <dir>``
  pointed at a pinned, shared ``queue_dir`` drains the same grid.

Execution is at-least-once (a lease reclaimed from a slow-but-alive
worker can run a cell twice), which is safe because every grid cell
publishes through the memo layer's atomic, locked writes.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro import observe
from repro.queue.core import (
    LEASED,
    PENDING,
    QUARANTINED,
    QUEUE_DIR_ENV,
    TaskSpec,
    WorkQueue,
    default_worker_id,
)
from repro.queue.worker import run_worker, task_fn_path
from repro.resilience.failures import KIND_CRASH, KIND_TIMEOUT, CellFailure
from repro.resilience.retry import resolve_cell_timeout, resolve_max_retries
from repro.utils.clock import Clock

JOBS_ENV = "REPRO_NUM_WORKERS"

#: How often the supervisor and its local workers look at the journal.
_POLL_SECONDS = 0.05
#: How long a drained grid waits for its local workers to exit on their own.
_EXIT_GRACE_SECONDS = 5.0
#: Fork where the platform has it: workers start in milliseconds and
#: inherit the driver's imports, so callables from any imported module
#: (test modules included) resolve.  A supervising driver runs no thread
#: of the executor's own (heartbeats run in workers), so forking it is
#: safe unless the caller runs threads of its own.
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


class WorkerError(RuntimeError):
    """A cell failure reported by a worker process.

    Carries the remote traceback text so the failure is debuggable from
    the driver; the original exception type/message lead the string form.
    """

    def __init__(self, message: str, remote_traceback: str = ""):
        super().__init__(message)
        self.remote_traceback = remote_traceback

    def __str__(self) -> str:
        base = super().__str__()
        if self.remote_traceback:
            return f"{base}\n--- remote traceback ---\n{self.remote_traceback}"
        return base

    def __reduce__(self):
        # RuntimeError's default reduction re-raises from ``args`` alone,
        # which would drop ``remote_traceback`` whenever the exception
        # crosses a process boundary (exactly where it matters).
        return (type(self), (super().__str__(), self.remote_traceback))


@dataclass
class MapOutcome:
    """The result of a degraded (``on_error="collect"``) map.

    ``results`` is positional: failed cells hold ``None`` and are
    enumerated (with their indices) in ``failures``.
    """

    results: list
    failures: list[CellFailure] = field(default_factory=list)
    retries: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_indices(self) -> list[int]:
        return [f.index for f in self.failures]

    def successes(self) -> list:
        """The surviving results (positional ``None`` holes removed)."""
        failed = set(self.failed_indices)
        return [r for i, r in enumerate(self.results) if i not in failed]


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: explicit arg > ``REPRO_NUM_WORKERS`` > 1.

    ``0`` (or any non-positive value) means "all CPUs".
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {raw!r}"
                ) from None
        else:
            jobs = 1
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _resolve_keys(
    keys: Sequence[str] | Callable[[Any], str] | None, items: Sequence
) -> list[str]:
    """Stable, unique per-cell keys: task identities in the journal, and
    the seeds of retry jitter, chaos decisions and manifests."""
    if keys is None:
        resolved = [f"item-{i}" for i in range(len(items))]
    elif callable(keys):
        resolved = [str(keys(item)) for item in items]
    else:
        resolved = [str(k) for k in keys]
        if len(resolved) != len(items):
            raise ValueError(
                f"keys has {len(resolved)} entries for {len(items)} items"
            )
    if len(set(resolved)) != len(resolved):
        raise ValueError(
            "parallel_map requires unique cell keys "
            "(keys are task identities in the journal)"
        )
    return resolved


def resolve_queue_dir(
    queue_dir: str | Path | None,
    fn_path: str,
    keys: Sequence[str],
    payloads: Sequence,
) -> tuple[Path, bool]:
    """``(directory, derived)``: explicit arg > ``REPRO_QUEUE_DIR`` > a
    directory derived from the grid.

    The derived directory hashes the function path and every (key,
    payload) pair under ``<cache>/queue/``, so re-running the identical
    grid resumes its journal while any other grid — even one whose keys
    coincide, such as ``rep0`` of two different models — gets its own.
    Pinned directories are for multi-host runs, where every participant
    must name the same shared path.
    """
    if queue_dir is not None:
        return Path(queue_dir), False
    env = os.environ.get(QUEUE_DIR_ENV, "").strip()
    if env:
        return Path(env), False
    from repro.experiments.zoo import cache_dir

    digest = hashlib.sha256(fn_path.encode("utf-8"))
    for key, payload in sorted(zip(keys, payloads), key=lambda kp: kp[0]):
        digest.update(b"\0" + key.encode("utf-8") + b"\0")
        digest.update(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    return cache_dir() / "queue" / f"grid-{digest.hexdigest()[:16]}", True


def _worker_error(key: str, error_type: str, message: str, tb: str) -> WorkerError:
    return WorkerError(f"cell {key!r} failed with {error_type}: {message}", tb)


def _local_worker(directory: str, worker_id: str) -> None:
    """Body of one local worker process: open the queue and drain it."""
    run_worker(WorkQueue(directory), worker_id=worker_id, poll_seconds=_POLL_SECONDS)


def _supervise(
    queue: WorkQueue,
    jobs: int,
    timeout: float | None,
    stop_on_failure: set[str] | None,
) -> None:
    """Keep ``jobs`` local workers draining ``queue`` until it is drained.

    Each pass reclaims expired leases, reclaims the lease of any local
    worker that exited without finishing (``crash``), terminates the
    worker of any cell past its deadline (``timeout``) and tops the set
    of workers back up.  ``stop_on_failure`` names the grid's cells in
    raise mode: the first of them to be quarantined raises
    :class:`WorkerError`.  Workers the driver stops hand
    their leases back at once, so a re-run never waits out a lease.
    """
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context(_START_METHOD)
    workers: dict[str, Any] = {}
    spawned = 0
    drained = False
    try:
        while True:
            queue.reclaim_expired()
            for wid, proc in list(workers.items()):
                if proc.exitcode is None:
                    continue
                del workers[wid]
                if proc.exitcode != 0:
                    observe.incr("queue.worker_deaths")
                    observe.incr("resilience.crash")
                    observe.event(
                        "queue.worker_died", worker=wid, returncode=proc.exitcode
                    )
                    queue.reclaim(
                        wid,
                        KIND_CRASH,
                        "WorkerCrashError",
                        f"worker exited with code {proc.exitcode} "
                        "without reporting a result",
                    )
            if timeout is not None:
                now = queue.clock.now()
                for task in queue.snapshot().values():
                    if task.status != LEASED or now - task.claimed_at <= timeout:
                        continue
                    proc = workers.pop(task.worker, None)
                    if proc is not None:
                        proc.terminate()
                        proc.join(timeout=10)
                    observe.incr("resilience.timeout")
                    queue.reclaim(
                        task.worker,
                        KIND_TIMEOUT,
                        "TimeoutError",
                        f"cell exceeded its {timeout:g}s deadline "
                        f"(attempt {task.claims})",
                    )
            tasks = sorted(queue.snapshot().values(), key=lambda t: t.order)
            if stop_on_failure:
                for task in tasks:
                    if task.status == QUARANTINED and task.key in stop_on_failure:
                        raise _worker_error(
                            task.key,
                            task.error_type,
                            task.error_message,
                            task.error_traceback,
                        )
            undone = sum(t.status in (PENDING, LEASED) for t in tasks)
            if undone == 0:
                drained = True
                return
            while len(workers) < min(jobs, undone):
                spawned += 1
                wid = f"{default_worker_id()}-w{spawned}"
                proc = ctx.Process(
                    target=_local_worker,
                    args=(str(queue.directory), wid),
                    daemon=True,
                )
                proc.start()
                workers[wid] = proc
                observe.incr("queue.workers_spawned")
            # Sleep one poll, or less if a worker exits (a drained queue
            # ends with its workers exiting).
            wait([p.sentinel for p in workers.values()], timeout=_POLL_SECONDS)
    finally:
        for proc in workers.values():
            # A drained queue lets idle workers see it and exit cleanly;
            # anything else (an error, a raise-mode abort) stops them now.
            proc.join(timeout=_EXIT_GRACE_SECONDS if drained else 0)
            if proc.exitcode is None:
                proc.terminate()
                proc.join(timeout=10)
        if not drained:
            for wid in workers:
                queue.reclaim(
                    wid, KIND_CRASH, "WorkerCrashError", "worker stopped by its driver"
                )


def parallel_map(
    fn: Callable,
    items: Iterable,
    jobs: int | None = None,
    *,
    on_error: str = "raise",
    max_retries: int | None = None,
    timeout: float | None = None,
    keys: Sequence[str] | Callable | None = None,
    queue_dir: str | Path | None = None,
    clock: Clock | None = None,
) -> list | MapOutcome:
    """Map ``fn`` over ``items`` through the durable work queue.

    ``fn`` must be a module-level callable (the journal names it by
    import path) and every cell must be idempotent.  Results come back
    positionally.  At ``jobs=1`` the cells run in this process and a
    failing cell's own exception propagates; at ``jobs>1`` a failure
    raises :class:`WorkerError` carrying the remote traceback.

    - ``max_retries`` — retries per cell for retryable failures, with
      seeded exponential backoff; deterministic failures are not
      retried.  Defaults to ``REPRO_MAX_RETRIES`` or 2;
    - ``timeout`` — per-cell deadline in seconds at ``jobs>1``; the
      worker running a cell past it is terminated and replaced.
      Defaults to ``REPRO_CELL_TIMEOUT`` or no deadline;
    - ``on_error="collect"`` — degrade instead of aborting: returns a
      :class:`MapOutcome` with ``None`` holes and one
      :class:`~repro.resilience.failures.CellFailure` per dead cell;
    - ``keys`` — unique per-cell names (a sequence, or a callable applied
      to each item); defaults to ``item-<index>``;
    - ``queue_dir`` — pin the queue directory (for multi-host runs);
      otherwise ``REPRO_QUEUE_DIR`` or a directory derived from the
      grid, which is removed again after a clean run;
    - ``clock`` — the queue's clock (tests drive ``jobs=1`` on a
      :class:`~repro.utils.clock.VirtualClock`).
    """
    if not callable(fn):
        raise ValueError(f"fn must be callable, got {type(fn).__name__}")
    if on_error not in ("raise", "collect"):
        raise ValueError(
            f"on_error must be 'raise' or 'collect', got {on_error!r}"
        )
    items = list(items)
    cell_keys = _resolve_keys(keys, items)
    max_leases = resolve_max_retries(max_retries) + 1
    timeout = resolve_cell_timeout(timeout)
    jobs = min(resolve_jobs(jobs), max(len(items), 1))
    if not items:
        return MapOutcome(results=[]) if on_error == "collect" else []
    fn_path = task_fn_path(fn)
    directory, derived = resolve_queue_dir(queue_dir, fn_path, cell_keys, items)
    queue = WorkQueue(directory, clock=clock, max_leases=max_leases)

    # Opening the span before workers start exports the run-ledger
    # environment, so worker processes attach their own event streams;
    # the finally-merge folds those streams back even on failure.
    try:
        with observe.span(
            "parallel_map", jobs=jobs, items=len(items), directory=str(directory)
        ) as span:
            added = queue.enqueue(
                TaskSpec(key=key, fn=fn_path, payload=item)
                for key, item in zip(cell_keys, items)
            )
            resumed = len(items) - added
            if resumed:
                observe.incr("queue.resumed_tasks", value=resumed)
                observe.event(
                    "queue.resume", directory=str(directory), already_known=resumed
                )
            claims_before = {k: t.claims for k, t in queue.snapshot().items()}
            if jobs == 1:
                run_worker(
                    queue, poll_seconds=_POLL_SECONDS, reraise=on_error == "raise"
                )
            else:
                _supervise(
                    queue,
                    jobs,
                    timeout,
                    stop_on_failure=set(cell_keys) if on_error == "raise" else None,
                )
            results, failures = _collect(queue, cell_keys)
            tasks = queue.snapshot()
            retries = sum(
                max(0, tasks[k].claims - max(claims_before[k], 1)) for k in cell_keys
            )
            span.set(failed=len(failures), retries=retries, resumed=resumed)
    finally:
        observe.merge_worker_streams()

    if failures and on_error == "raise":
        first = failures[0]
        raise _worker_error(
            first.key, first.error_type, first.message, first.remote_traceback
        )
    if derived and not failures:
        shutil.rmtree(directory, ignore_errors=True)
    if on_error == "collect":
        return MapOutcome(results=results, failures=failures, retries=retries)
    return results


def _collect(queue: WorkQueue, cell_keys: list[str]) -> tuple[list, list[CellFailure]]:
    """Positional results plus one failure per dead cell, by index."""
    index_of = {key: i for i, key in enumerate(cell_keys)}
    failures = [
        f for f in queue.failures(index_of=lambda k: index_of.get(k, -1))
        if f.key in index_of
    ]
    failed = {f.index for f in failures}
    results: list[Any] = [None] * len(cell_keys)
    for i, key in enumerate(cell_keys):
        if i in failed:
            continue
        if queue.has_result(key):
            results[i] = queue.load_result(key)
        else:
            # Done without a result should be impossible (results publish
            # before ``done``), but a hand-deleted results dir must
            # degrade, not silently hand back ``None``.
            failures.append(
                CellFailure(
                    key=key,
                    index=i,
                    kind=KIND_CRASH,
                    error_type="MissingResult",
                    message="task is done in the journal but its result "
                    "file is missing",
                    retryable=True,
                )
            )
    failures.sort(key=lambda f: f.index)
    return results, failures
