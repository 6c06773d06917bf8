"""The worker loop (inline, VirtualClock): execution, failure journaling,
duplicate suppression, idempotent-result shortcut, and fn-path rules."""

from __future__ import annotations

import math

import pytest

from repro.queue import TaskSpec, WorkQueue, run_worker, task_fn_path
from repro.queue.core import DONE, PENDING, QUARANTINED
from repro.queue.worker import resolve_task_fn
from repro.utils.clock import VirtualClock

CALLS = []


def record_call(payload):
    """Module-level task used to observe executions."""
    CALLS.append(payload)
    return payload * 2


def always_fails(payload):
    """Module-level task that deterministically raises."""
    raise ValueError(f"cannot process {payload!r}")


def always_flaky(payload):
    """Module-level task that raises a retryable error on every attempt."""
    raise OSError(f"transient hiccup on {payload!r}")


@pytest.fixture(autouse=True)
def _clear_calls():
    CALLS.clear()


def make_queue(tmp_path, **kw):
    kw.setdefault("lease_seconds", 10.0)
    kw.setdefault("clock", VirtualClock())
    return WorkQueue(tmp_path / "q", **kw)


class TestTaskFnPath:
    def test_module_level_function_round_trips(self):
        path = task_fn_path(record_call)
        assert path.endswith(":record_call")
        assert resolve_task_fn(path) is record_call

    def test_stdlib_function_round_trips(self):
        assert resolve_task_fn(task_fn_path(math.sqrt)) is math.sqrt

    def test_lambda_rejected(self):
        with pytest.raises(ValueError, match="module-level"):
            task_fn_path(lambda x: x)

    def test_nested_function_rejected(self):
        def inner(x):
            return x

        with pytest.raises(ValueError, match="module-level"):
            task_fn_path(inner)

    def test_bad_paths_rejected(self):
        with pytest.raises(ValueError, match="bad task function path"):
            resolve_task_fn("no-colon-here")
        with pytest.raises(ValueError, match="non-callable"):
            resolve_task_fn("math:pi")


class TestRunWorker:
    def test_drains_queue_and_publishes_results(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue(
            TaskSpec(key=f"k{i}", fn=task_fn_path(record_call), payload=i)
            for i in range(4)
        )
        report = run_worker(queue, worker_id="w")
        assert report.completed == 4 and report.failed == 0
        assert sorted(CALLS) == [0, 1, 2, 3]
        assert queue.drained()
        assert [queue.load_result(f"k{i}") for i in range(4)] == [0, 2, 4, 6]

    def test_failing_task_is_retried_then_quarantined(self, tmp_path):
        queue = make_queue(tmp_path, max_leases=2)
        queue.enqueue([TaskSpec(key="bad", fn=task_fn_path(always_flaky))])
        report = run_worker(queue, worker_id="w")
        assert report.failed == 2  # two leases burned, then poison
        assert queue.counts()[QUARANTINED] == 1
        [failure] = queue.failures()
        assert failure.error_type == "OSError"
        assert "traceback" in failure.remote_traceback.lower()

    def test_deterministic_failure_is_not_retried(self, tmp_path):
        queue = make_queue(tmp_path, max_leases=3)
        queue.enqueue([TaskSpec(key="bad", fn=task_fn_path(always_fails))])
        report = run_worker(queue, worker_id="w")
        assert report.failed == 1
        [failure] = queue.failures()
        assert failure.error_type == "ValueError" and failure.attempts == 1

    def test_reraise_surfaces_the_quarantined_error(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue([TaskSpec(key="bad", fn=task_fn_path(always_fails), payload=7)])
        with pytest.raises(ValueError, match="cannot process 7"):
            run_worker(queue, worker_id="w", reraise=True)
        assert queue.counts()[QUARANTINED] == 1

    def test_max_tasks_bounds_one_invocation(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue(
            TaskSpec(key=f"k{i}", fn=task_fn_path(record_call), payload=i)
            for i in range(3)
        )
        report = run_worker(queue, worker_id="w", max_tasks=2)
        assert report.completed == 2
        assert queue.counts()[PENDING] == 1

    def test_existing_result_short_circuits_execution(self, tmp_path):
        """A task whose previous holder published but died before ``done``
        is completed from the published result, not re-executed."""
        clock = VirtualClock()
        queue = make_queue(tmp_path, clock=clock)
        queue.enqueue(
            [TaskSpec(key="k", fn=task_fn_path(record_call), payload=21)]
        )
        dead = queue.claim(worker="dead")
        queue.publish_result("k", 42)  # published, then the worker died
        clock.sleep(10.0)
        queue.reclaim_expired()
        report = run_worker(queue, worker_id="w")
        assert report.completed == 1
        assert CALLS == []  # not re-executed
        assert queue.load_result("k") == 42
        assert queue.complete(dead) is False

    def test_interleaved_workers_split_the_queue(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue(
            TaskSpec(key=f"k{i}", fn=task_fn_path(record_call), payload=i)
            for i in range(6)
        )
        a = run_worker(queue, worker_id="a", max_tasks=3)
        b = run_worker(queue, worker_id="b")
        assert a.completed == 3 and b.completed == 3
        assert queue.counts()[DONE] == 6
        assert set(a.keys).isdisjoint(b.keys)
