""":class:`WorkQueue` — the lease-based task state machine over the journal.

State per task (a pure fold over journal records)::

                 claim                    done
    pending  ───────────►  leased  ───────────►  done
       ▲                     │
       │   fail / reclaim    │  retryable and claims < max_leases
       └─────────────────────┤  (claimable again after a backoff)
                             │  otherwise
                             ▼
                        quarantined  ──(next run's enqueue re-arms)──► pending

- ``claim`` hands the oldest pending task to a worker with a lease that
  expires ``lease_seconds`` into the future; ``renew`` (the heartbeat)
  pushes the expiry out while the worker is alive and making progress.
- ``fail`` (the task function raised) and ``reclaim`` (the lease was
  lost — worker crash, SIGKILL, host loss — or the cell blew its
  deadline) return the task to pending after a seeded backoff
  (:class:`~repro.resilience.retry.RetryPolicy`), but only for
  retryable failures: a deterministic error, or a task that has burned
  its lease budget, is **quarantined** as poison.  A quarantined task is
  never dispatched again in this run and surfaces as a
  :class:`~repro.resilience.failures.CellFailure` saying whether the
  cell raised, lost its worker or hit its deadline; the next driver run
  that enqueues it re-arms it with a fresh budget.
- ``complete`` is accepted even from an expired or reclaimed lease: the
  worker *did* publish its artifact through the atomic memo layer before
  calling, so the work exists and marking it done is strictly correct
  (at-least-once execution; the journal's first ``done`` wins).

Every mutation runs under one per-queue file lock: refresh state from the
journal's new records, apply, append.  Clocks are injectable
(:mod:`repro.utils.clock`); production uses the epoch wall clock so
expiries are comparable across hosts, tests use ``VirtualClock``.
"""

from __future__ import annotations

import os
import pickle
import socket
import zlib
from base64 import b64decode, b64encode
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro import observe
from repro.parallel.locks import FileLock, atomic_write
from repro.queue.journal import JOURNAL_NAME, Journal
from repro.resilience.failures import KIND_CRASH, KIND_EXCEPTION, CellFailure
from repro.resilience.retry import RetryPolicy, is_retryable, is_retryable_type
from repro.utils.clock import Clock, WallClock

QUEUE_DIR_ENV = "REPRO_QUEUE_DIR"
LEASE_SECONDS_ENV = "REPRO_LEASE_SECONDS"

#: Task states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
QUARANTINED = "quarantined"

_RESULTS_DIR = "results"


def resolve_lease_seconds(lease_seconds: float | None = None) -> float:
    """Explicit arg > ``REPRO_LEASE_SECONDS`` > 60 seconds."""
    if lease_seconds is None:
        raw = os.environ.get(LEASE_SECONDS_ENV, "").strip()
        if raw:
            try:
                lease_seconds = float(raw)
            except ValueError:
                raise ValueError(
                    f"{LEASE_SECONDS_ENV} must be a number, got {raw!r}"
                ) from None
        else:
            lease_seconds = 60.0
    lease_seconds = float(lease_seconds)
    if lease_seconds <= 0:
        raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
    return lease_seconds


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class TaskSpec:
    """What the enqueuer provides: a keyed, importable, picklable cell.

    ``fn`` is a module-level callable path (``"module:qualname"``, see
    :func:`repro.queue.worker.task_fn_path`) so any worker process can
    resolve it; ``payload`` is its single argument (pickled into the
    journal — workers on other hosts need the same code version, which
    the artifact cache already requires).
    """

    key: str
    fn: str
    payload: Any = None


@dataclass(frozen=True)
class Lease:
    """One claimed task: the worker's permit to run it until ``expires``."""

    key: str
    lease_id: str
    worker: str
    fn: str
    payload: Any
    attempt: int  # 0-based lease number for this task
    expires: float


@dataclass
class TaskView:
    """Mutable replay state of one task (internal; snapshots copy it)."""

    key: str
    fn: str
    payload_b64: str
    order: int
    max_leases: int
    status: str = PENDING
    claims: int = 0
    lease_id: str | None = None
    worker: str | None = None
    claimed_at: float | None = None
    expires: float | None = None
    retry_at: float = 0.0  # backoff: not claimable before this time
    kind: str = ""
    error_type: str = ""
    error_message: str = ""
    error_traceback: str = ""
    retryable: bool = True

    @property
    def terminal(self) -> bool:
        return self.status in (DONE, QUARANTINED)


def _sanitize(key: str) -> str:
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in key)
    return f"{safe[:120]}-{zlib.adler32(key.encode()):08x}"


class WorkQueue:
    """A durable work queue rooted at one directory on a shared filesystem.

    Layout::

        <directory>/journal.jsonl    the record of every transition
        <directory>/queue.lock       the mutation lock
        <directory>/results/*.pkl    atomically published task results

    Several :class:`WorkQueue` instances (across processes and hosts) may
    point at the same directory; each folds the journal independently and
    serializes mutations through the lock.
    """

    def __init__(
        self,
        directory: str | Path,
        clock: Clock | None = None,
        *,
        lease_seconds: float | None = None,
        max_leases: int = 3,
        lock_timeout: float | None = 60.0,
    ):
        if max_leases < 1:
            raise ValueError(f"max_leases must be >= 1, got {max_leases}")
        self.directory = Path(directory)
        self.clock = clock if clock is not None else WallClock()
        self.lease_seconds = resolve_lease_seconds(lease_seconds)
        #: Lease budget of tasks this instance enqueues; each task carries
        #: its own budget in its ``add`` record, so every participant
        #: (driver, local workers, workers on other hosts) agrees on it.
        self.max_leases = int(max_leases)
        self.policy = RetryPolicy()
        self.journal = Journal(self.directory / JOURNAL_NAME)
        self._lock = FileLock(self.directory / "queue.lock", timeout=lock_timeout)
        self._tasks: dict[str, TaskView] = {}
        self._order = 0
        self._lease_seq = 0

    # ----------------------------------------------------------- folding
    def _apply(self, record: dict) -> None:
        op = record.get("op")
        key = record.get("task", "")
        if op == "add":
            if key not in self._tasks:
                self._tasks[key] = TaskView(
                    key=key,
                    fn=str(record.get("fn", "")),
                    payload_b64=str(record.get("payload", "")),
                    order=self._order,
                    max_leases=int(record.get("leases", self.max_leases)),
                )
                self._order += 1
            return
        task = self._tasks.get(key)
        if task is None:
            return  # record for a task whose `add` was torn away
        if op == "claim":
            task.status = LEASED
            task.claims += 1
            task.lease_id = record.get("lease")
            task.worker = record.get("worker")
            task.claimed_at = float(record.get("ts", 0.0))
            task.expires = float(record.get("expires", 0.0))
        elif op == "renew":
            if task.status == LEASED and task.lease_id == record.get("lease"):
                task.expires = float(record.get("expires", 0.0))
        elif op == "done":
            if not task.terminal:
                task.status = DONE
                task.lease_id = None
                task.expires = None
        elif op in ("fail", "reclaim"):
            if task.status == LEASED and task.lease_id == record.get("lease"):
                task.status = PENDING
                task.lease_id = None
                task.expires = None
                task.retry_at = float(record.get("retry_at", 0.0))
            task.kind = str(record.get("kind", ""))
            task.retryable = bool(record.get("retryable", True))
            task.error_type = str(record.get("error_type", ""))
            task.error_message = str(record.get("message", ""))
            task.error_traceback = str(record.get("traceback", ""))
        elif op == "quarantine":
            if not task.terminal:
                task.status = QUARANTINED
                task.lease_id = None
                task.expires = None
        elif op == "rearm":
            if task.status == QUARANTINED:
                task.status = PENDING
                task.claims = 0
                task.retry_at = 0.0
                task.max_leases = int(record.get("leases", task.max_leases))

    def _refresh(self) -> None:
        for record in self.journal.read_new():
            self._apply(record)

    def _append(self, record: dict) -> None:
        record.setdefault("ts", self.clock.now())
        self.journal.append(record)
        self._apply(record)
        # Keep the reader offset in step so the next refresh does not
        # re-apply our own record (applying twice is harmless for every
        # op, but claim counts lease burns and must stay exact).
        self.journal.read_new()

    # ----------------------------------------------------------- enqueue
    def enqueue(self, tasks: Iterable[TaskSpec]) -> int:
        """Add tasks; returns the number of newly added tasks.

        Idempotent by key, which is what makes a driver restart safe:
        re-enqueueing a half-finished grid re-adds nothing, cells already
        ``done`` are served from the results directory, and quarantined
        cells are re-armed with a fresh lease budget.  A known key whose
        function or payload differs raises ``ValueError``: the directory
        belongs to another grid, and serving its results would hand this
        grid another grid's numbers.
        """
        tasks = list(tasks)
        added = 0
        with self._lock:
            self._refresh()
            for spec in tasks:
                payload = b64encode(
                    pickle.dumps(spec.payload, protocol=pickle.HIGHEST_PROTOCOL)
                ).decode("ascii")
                task = self._tasks.get(spec.key)
                if task is None:
                    self._append(
                        {
                            "op": "add",
                            "task": spec.key,
                            "fn": spec.fn,
                            "payload": payload,
                            "leases": self.max_leases,
                        }
                    )
                    added += 1
                    continue
                if task.fn != spec.fn or not _same_payload(
                    task.payload_b64, payload, spec.payload
                ):
                    raise ValueError(
                        f"queue {self.directory} already holds task "
                        f"{spec.key!r} with a different function or payload; "
                        "two grids must not share one queue directory"
                    )
                if task.status == QUARANTINED:
                    self._append(
                        {"op": "rearm", "task": spec.key, "leases": self.max_leases}
                    )
        if added:
            observe.incr("queue.enqueued", value=added)
        return added

    # ------------------------------------------------------------- claim
    def claim(self, worker: str | None = None) -> Lease | None:
        """Claim the oldest claimable task, or ``None`` when none is.

        A pending task is claimable once its retry backoff has passed.
        The lease expires ``lease_seconds`` from now unless renewed; an
        expired lease is reclaimable by anyone driving
        :meth:`reclaim_expired`.
        """
        worker = worker or default_worker_id()
        with self._lock:
            self._refresh()
            now = self.clock.now()
            candidates = [
                t
                for t in self._tasks.values()
                if t.status == PENDING and t.retry_at <= now
            ]
            if not candidates:
                return None
            task = min(candidates, key=lambda t: t.order)
            self._lease_seq += 1
            lease_id = f"{worker}.{self._lease_seq}.{task.claims}"
            expires = now + self.lease_seconds
            attempt = task.claims  # 0-based: claims not yet incremented
            self._append(
                {
                    "op": "claim",
                    "task": task.key,
                    "worker": worker,
                    "lease": lease_id,
                    "expires": expires,
                }
            )
        observe.incr("queue.claims")
        return Lease(
            key=task.key,
            lease_id=lease_id,
            worker=worker,
            fn=task.fn,
            payload=pickle.loads(b64decode(task.payload_b64)),
            attempt=attempt,
            expires=expires,
        )

    def renew(self, lease: Lease) -> float | None:
        """Heartbeat: extend the lease; ``None`` if it was lost.

        A lost lease (expired and reclaimed, or the task already finished
        elsewhere) is the signal that this worker's work may be
        duplicated; it can keep going safely (idempotent cells) but must
        expect its ``complete`` to be a no-op.
        """
        with self._lock:
            self._refresh()
            task = self._tasks.get(lease.key)
            if task is None or task.status != LEASED or task.lease_id != lease.lease_id:
                return None
            expires = self.clock.now() + self.lease_seconds
            self._append(
                {
                    "op": "renew",
                    "task": lease.key,
                    "lease": lease.lease_id,
                    "expires": expires,
                }
            )
        observe.incr("queue.renewals")
        return expires

    # ------------------------------------------------------- terminality
    def complete(self, lease: Lease, seconds: float | None = None) -> bool:
        """Mark the lease's task done.  Returns False if it already was.

        Accepted even from a stale lease — the artifact was atomically
        published before this call, so the work exists regardless of who
        holds the lease now (at-least-once; first ``done`` wins).
        """
        with self._lock:
            self._refresh()
            task = self._tasks.get(lease.key)
            if task is None or task.status == DONE:
                return False
            record = {
                "op": "done",
                "task": lease.key,
                "lease": lease.lease_id,
                "worker": lease.worker,
            }
            if seconds is not None:
                record["seconds"] = round(float(seconds), 6)
            if task.lease_id != lease.lease_id:
                record["late"] = True  # finished after reclaim: duplicate-safe
            self._append(record)
        observe.incr("queue.completions")
        observe.incr(f"queue.worker_tasks.{lease.worker}")
        if seconds is not None:
            observe.hist("queue.task_seconds", float(seconds))
        return True

    def fail(
        self,
        lease: Lease,
        exc: BaseException | tuple,
        retryable: bool | None = None,
    ) -> str:
        """Record a task-function failure; returns the task's new status.

        ``exc`` is a live exception or an ``(error_type, message,
        traceback)`` triple; ``retryable`` defaults to its
        :mod:`repro.resilience.retry` classification.  A retryable
        failure with lease budget left returns the task to pending after
        a seeded backoff; anything else quarantines it.
        """
        if isinstance(exc, BaseException):
            error = (type(exc).__name__, str(exc), "")
            if retryable is None:
                retryable = is_retryable(exc)
        else:
            error = tuple(exc)
        error_type, message, tb = (list(error) + ["", "", ""])[:3]
        if retryable is None:
            retryable = is_retryable_type(error_type)
        with self._lock:
            self._refresh()
            task = self._tasks.get(lease.key)
            if task is None or task.terminal:
                return task.status if task else QUARANTINED
            status = self._release(
                task,
                {
                    "op": "fail",
                    "task": lease.key,
                    "lease": lease.lease_id,
                    "worker": lease.worker,
                    "kind": KIND_EXCEPTION,
                    "retryable": bool(retryable),
                    "error_type": error_type,
                    "message": message,
                    "traceback": tb,
                },
            )
        observe.incr("queue.failures")
        return status

    def _release(self, task: TaskView, record: dict) -> str:
        """Under the lock: journal the end of a failed lease.

        The task goes back to pending after the policy's seeded backoff
        when the failure is retryable and budget remains; otherwise it
        is quarantined.  Returns the task's new status.
        """
        retry = record["retryable"] and task.claims < task.max_leases
        if retry:
            record["retry_at"] = self.clock.now() + self.policy.backoff(
                task.claims, task.key
            )
        self._append(record)
        if task.status == PENDING:
            if retry:
                observe.incr("resilience.retry")
            else:
                self._append(
                    {"op": "quarantine", "task": task.key, "leases": task.claims}
                )
                observe.incr("queue.quarantines")
                observe.incr("resilience.failed")
        return task.status

    def _reclaim_where(
        self, pick: Callable[[TaskView], bool], kind: str, error_type: str, message: str
    ) -> list[tuple[str, str]]:
        reclaimed: list[tuple[str, str]] = []
        with self._lock:
            self._refresh()
            for task in list(self._tasks.values()):
                if task.status != LEASED or not pick(task):
                    continue
                status = self._release(
                    task,
                    {
                        "op": "reclaim",
                        "task": task.key,
                        "lease": task.lease_id,
                        "worker": task.worker,
                        "kind": kind,
                        "retryable": True,
                        "error_type": error_type,
                        "message": message,
                    },
                )
                reclaimed.append((task.key, status))
        if reclaimed:
            observe.incr("queue.reclaims", value=len(reclaimed))
        return reclaimed

    def reclaim_expired(self) -> list[tuple[str, str]]:
        """Return expired leases to pending (or quarantine); anyone may call.

        Returns ``(key, new_status)`` per reclaimed task.  Driven by the
        executor's supervision loop and by idle workers, so a dead
        worker's cells resurface even if the original driver is gone.
        """
        now = self.clock.now()
        return self._reclaim_where(
            lambda t: t.expires is not None and t.expires <= now,
            KIND_CRASH,
            "LeaseExpired",
            "lease expired: its worker stopped renewing it (crash or lost host)",
        )

    def reclaim(
        self, worker: str, kind: str, error_type: str, message: str
    ) -> list[tuple[str, str]]:
        """Reclaim every lease ``worker`` holds, recording why.

        For a supervisor that knows better than the lease clock: its
        local worker died (``kind="crash"``) or blew a deadline and was
        terminated (``kind="timeout"``).
        """
        return self._reclaim_where(
            lambda t: t.worker == worker, kind, error_type, message
        )

    # ------------------------------------------------------------ results
    def result_path(self, key: str) -> Path:
        return self.directory / _RESULTS_DIR / f"{_sanitize(key)}.pkl"

    def publish_result(self, key: str, value: Any) -> Path:
        """Atomically publish a task's result (last writer wins; identical
        for idempotent cells, so duplicated execution is invisible)."""
        path = self.result_path(key)
        with atomic_write(path) as tmp:
            tmp.write_bytes(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        return path

    def load_result(self, key: str) -> Any:
        with open(self.result_path(key), "rb") as fh:
            return pickle.load(fh)

    def has_result(self, key: str) -> bool:
        return self.result_path(key).exists()

    # ----------------------------------------------------------- queries
    def refresh(self) -> None:
        """Catch this instance up with the journal (under the lock)."""
        with self._lock:
            self._refresh()

    def snapshot(self) -> dict[str, TaskView]:
        """A consistent view of every task (refreshed first)."""
        self.refresh()
        return dict(self._tasks)

    def counts(self) -> dict[str, int]:
        snap = self.snapshot().values()
        out = {PENDING: 0, LEASED: 0, DONE: 0, QUARANTINED: 0}
        for task in snap:
            out[task.status] += 1
        return out

    def drained(self) -> bool:
        """Every task is terminal (done or quarantined)."""
        counts = self.counts()
        return counts[PENDING] + counts[LEASED] == 0

    def failures(
        self, index_of: Callable[[str], int] | None = None
    ) -> list[CellFailure]:
        """Quarantined tasks as ``CellFailure`` records (manifest-ready)."""
        out = []
        for task in self.snapshot().values():
            if task.status != QUARANTINED:
                continue
            out.append(
                CellFailure(
                    key=task.key,
                    index=index_of(task.key) if index_of is not None else -1,
                    kind=task.kind or KIND_CRASH,
                    error_type=task.error_type or "LeaseExpired",
                    message=task.error_message,
                    attempts=task.claims,
                    remote_traceback=task.error_traceback,
                    retryable=task.retryable,
                )
            )
        return out


def _same_payload(stored_b64: str, payload_b64: str, payload: Any) -> bool:
    """Equal pickles, or (pickling is not canonical) equal values."""
    if stored_b64 == payload_b64:
        return True
    try:
        return bool(pickle.loads(b64decode(stored_b64)) == payload)
    except Exception:  # incomparable values (arrays, unpicklable): differ
        return False
