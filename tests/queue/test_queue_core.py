"""WorkQueue lease state machine, entirely on a VirtualClock — no wall
sleeps: claim → heartbeat → expiry → reclaim → backoff → quarantine,
stale-lease completion, idempotent enqueue, and cross-instance journal
replay."""

from __future__ import annotations

import pytest

from repro.queue import LEASE_SECONDS_ENV, TaskSpec, WorkQueue
from repro.queue.core import (
    DONE,
    LEASED,
    PENDING,
    QUARANTINED,
    resolve_lease_seconds,
)
from repro.resilience.failures import KIND_CRASH, KIND_EXCEPTION, KIND_TIMEOUT
from repro.utils.clock import VirtualClock


def make_queue(tmp_path, clock=None, **kw):
    kw.setdefault("lease_seconds", 10.0)
    return WorkQueue(tmp_path / "q", clock=clock or VirtualClock(), **kw)


def enqueue_one(queue, key="cell-a", payload=4.0):
    queue.enqueue([TaskSpec(key=key, fn="math:sqrt", payload=payload)])


class TestEnqueue:
    def test_enqueue_dedupes_by_key(self, tmp_path):
        queue = make_queue(tmp_path)
        spec = TaskSpec(key="a", fn="math:sqrt", payload=1.0)
        assert queue.enqueue([spec]) == 1
        assert queue.enqueue([spec]) == 0  # idempotent driver restart
        assert queue.counts()[PENDING] == 1

    def test_done_tasks_are_not_re_added(self, tmp_path):
        queue = make_queue(tmp_path)
        enqueue_one(queue)
        lease = queue.claim(worker="w")
        queue.publish_result(lease.key, 2.0)
        queue.complete(lease)
        assert queue.enqueue([TaskSpec(key="cell-a", fn="math:sqrt", payload=4.0)]) == 0
        assert queue.counts()[DONE] == 1

    def test_known_key_with_another_payload_is_rejected(self, tmp_path):
        queue = make_queue(tmp_path)
        enqueue_one(queue, payload=4.0)
        with pytest.raises(ValueError, match="different function or payload"):
            enqueue_one(queue, payload=9.0)
        with pytest.raises(ValueError, match="different function or payload"):
            queue.enqueue([TaskSpec(key="cell-a", fn="math:exp", payload=4.0)])

    def test_equal_payload_pickled_differently_is_the_same_task(self, tmp_path):
        # Pickle memoizes shared objects, so equal values can pickle to
        # different bytes (one string twice vs two equal strings).
        queue = make_queue(tmp_path)
        first, second = "".join(["w", "t"]), "".join(["w", "t"])
        queue.enqueue([TaskSpec(key="k", fn="math:sqrt", payload=(first, first))])
        assert queue.enqueue(
            [TaskSpec(key="k", fn="math:sqrt", payload=(first, second))]
        ) == 0

    def test_enqueue_rearms_a_quarantined_task(self, tmp_path):
        queue = make_queue(tmp_path, max_leases=1)
        enqueue_one(queue)
        queue.fail(queue.claim(worker="w"), ValueError("bad payload"))
        assert queue.counts()[QUARANTINED] == 1
        assert queue.enqueue([TaskSpec(key="cell-a", fn="math:sqrt", payload=4.0)]) == 0
        retry = queue.claim(worker="w")
        assert retry.key == "cell-a" and retry.attempt == 0  # fresh budget

    def test_payload_round_trips_through_pickle(self, tmp_path):
        queue = make_queue(tmp_path)
        payload = {"nested": [1, 2.5, "three"], "flag": True}
        queue.enqueue([TaskSpec(key="p", fn="math:sqrt", payload=payload)])
        assert queue.claim(worker="w").payload == payload


class TestLeaseLifecycle:
    def test_claim_is_fifo_and_leases_expire_ahead(self, tmp_path):
        clock = VirtualClock()
        queue = make_queue(tmp_path, clock)
        enqueue_one(queue, "first")
        enqueue_one(queue, "second")
        lease = queue.claim(worker="w")
        assert lease.key == "first"
        assert lease.attempt == 0
        assert lease.expires == clock.now() + 10.0
        assert queue.counts() == {
            PENDING: 1, LEASED: 1, DONE: 0, QUARANTINED: 0,
        }

    def test_claim_returns_none_when_nothing_pending(self, tmp_path):
        queue = make_queue(tmp_path)
        assert queue.claim(worker="w") is None
        enqueue_one(queue)
        queue.claim(worker="w")
        assert queue.claim(worker="w") is None  # only task is leased

    def test_heartbeat_extends_expiry(self, tmp_path):
        clock = VirtualClock()
        queue = make_queue(tmp_path, clock)
        enqueue_one(queue)
        lease = queue.claim(worker="w")
        clock.sleep(8.0)
        assert queue.renew(lease) == clock.now() + 10.0
        clock.sleep(8.0)  # 16s after claim: dead without the renewal
        assert queue.reclaim_expired() == []
        assert queue.counts()[LEASED] == 1

    def test_expired_lease_is_reclaimed_to_pending(self, tmp_path):
        clock = VirtualClock()
        queue = make_queue(tmp_path, clock)
        enqueue_one(queue)
        lease = queue.claim(worker="w")
        clock.sleep(10.0)  # expiry is inclusive: expires <= now
        assert queue.reclaim_expired() == [("cell-a", PENDING)]
        assert queue.renew(lease) is None  # original lease is dead
        assert queue.claim(worker="w2") is None  # still backing off
        clock.sleep(1.0)
        replacement = queue.claim(worker="w2")
        assert replacement.key == "cell-a"
        assert replacement.attempt == 1

    def test_complete_marks_done_and_stops_reclaim(self, tmp_path):
        clock = VirtualClock()
        queue = make_queue(tmp_path, clock)
        enqueue_one(queue)
        lease = queue.claim(worker="w")
        queue.publish_result(lease.key, 2.0)
        assert queue.complete(lease, seconds=1.5) is True
        clock.sleep(100.0)
        assert queue.reclaim_expired() == []
        assert queue.drained()
        assert queue.load_result("cell-a") == 2.0

    def test_stale_lease_completion_is_accepted(self, tmp_path):
        """A worker that published its artifact but lost its lease still
        gets to mark the task done — the work exists (at-least-once)."""
        clock = VirtualClock()
        queue = make_queue(tmp_path, clock)
        enqueue_one(queue)
        stale = queue.claim(worker="slow")
        clock.sleep(10.0)
        queue.reclaim_expired()
        clock.sleep(1.0)  # past the retry backoff
        assert queue.claim(worker="fast") is not None  # second holder, mid-flight
        queue.publish_result(stale.key, 2.0)
        assert queue.complete(stale) is True
        assert queue.counts()[DONE] == 1

    def test_duplicate_completion_reports_false(self, tmp_path):
        clock = VirtualClock()
        queue = make_queue(tmp_path, clock)
        enqueue_one(queue)
        stale = queue.claim(worker="slow")
        clock.sleep(10.0)
        queue.reclaim_expired()
        clock.sleep(1.0)  # past the retry backoff
        fresh = queue.claim(worker="fast")
        queue.publish_result(fresh.key, 2.0)
        assert queue.complete(fresh) is True
        assert queue.complete(stale) is False  # first done wins


class TestQuarantine:
    def test_task_burning_lease_budget_is_quarantined(self, tmp_path):
        clock = VirtualClock()
        queue = make_queue(tmp_path, clock, max_leases=2)
        enqueue_one(queue)
        for _ in range(2):
            assert queue.claim(worker="w") is not None
            clock.sleep(10.0)
            reclaimed = queue.reclaim_expired()
            clock.sleep(1.0)  # past the retry backoff
        assert reclaimed == [("cell-a", QUARANTINED)]
        [failure] = queue.failures()
        assert (failure.kind, failure.error_type) == (KIND_CRASH, "LeaseExpired")
        assert queue.claim(worker="w") is None  # poison: never re-leased
        assert queue.drained()  # quarantined counts as terminal

    def test_failing_task_quarantines_with_its_error(self, tmp_path):
        clock = VirtualClock()
        queue = make_queue(tmp_path, clock, max_leases=2)
        enqueue_one(queue)
        for _ in range(2):
            lease = queue.claim(worker="w")
            status = queue.fail(lease, OSError("disk hiccup"))
            clock.sleep(1.0)  # past the retry backoff
        assert status == QUARANTINED
        [failure] = queue.failures()
        assert failure.kind == KIND_EXCEPTION
        assert failure.error_type == "OSError"
        assert failure.message == "disk hiccup"
        assert failure.attempts == 2
        assert failure.retryable is True

    def test_deterministic_failure_quarantines_at_once(self, tmp_path):
        queue = make_queue(tmp_path, max_leases=3)
        enqueue_one(queue)
        lease = queue.claim(worker="w")
        assert queue.fail(lease, ValueError("bad payload")) == QUARANTINED
        [failure] = queue.failures()
        assert failure.attempts == 1 and failure.retryable is False

    def test_fail_below_budget_returns_to_pending(self, tmp_path):
        clock = VirtualClock()
        queue = make_queue(tmp_path, clock, max_leases=3)
        enqueue_one(queue)
        lease = queue.claim(worker="w")
        assert queue.fail(lease, OSError("transient")) == PENDING
        clock.sleep(1.0)  # past the retry backoff
        retry = queue.claim(worker="w")
        assert retry.key == "cell-a" and retry.attempt == 1

    def test_supervisor_reclaim_records_its_cause(self, tmp_path):
        clock = VirtualClock()
        queue = make_queue(tmp_path, clock, max_leases=1)
        enqueue_one(queue, "k0")
        enqueue_one(queue, "k1")
        queue.claim(worker="dead")
        queue.claim(worker="hung")
        assert queue.reclaim("dead", KIND_CRASH, "WorkerCrashError", "exit 9") == [
            ("k0", QUARANTINED)
        ]
        queue.reclaim("hung", KIND_TIMEOUT, "TimeoutError", "past its deadline")
        kinds = {f.key: (f.kind, f.error_type) for f in queue.failures()}
        assert kinds == {
            "k0": (KIND_CRASH, "WorkerCrashError"),
            "k1": (KIND_TIMEOUT, "TimeoutError"),
        }

    def test_quarantine_failure_carries_index_mapping(self, tmp_path):
        clock = VirtualClock()
        queue = make_queue(tmp_path, clock, max_leases=1)
        enqueue_one(queue, "k0")
        enqueue_one(queue, "k1")
        lease = queue.claim(worker="w")
        queue.fail(lease, RuntimeError("boom"))
        [failure] = queue.failures(index_of={"k0": 0, "k1": 1}.__getitem__)
        assert (failure.key, failure.index) == ("k0", 0)


class TestReplay:
    def test_fresh_instance_folds_identical_state(self, tmp_path):
        clock = VirtualClock()
        queue = make_queue(tmp_path, clock, max_leases=2)
        for key in ("a", "b", "c"):
            enqueue_one(queue, key)
        done = queue.claim(worker="w")
        queue.publish_result(done.key, 1.0)
        queue.complete(done)
        queue.claim(worker="w")  # leave "b" leased
        replayed = WorkQueue(
            queue.directory, clock=clock, lease_seconds=10.0, max_leases=2
        )
        assert replayed.counts() == queue.counts()
        assert replayed.counts() == {
            PENDING: 1, LEASED: 1, DONE: 1, QUARANTINED: 0,
        }

    def test_two_instances_interleave_through_one_journal(self, tmp_path):
        clock = VirtualClock()
        first = make_queue(tmp_path, clock)
        second = WorkQueue(first.directory, clock=clock, lease_seconds=10.0)
        enqueue_one(first, "a")
        enqueue_one(first, "b")
        la = first.claim(worker="w1")
        lb = second.claim(worker="w2")
        assert {la.key, lb.key} == {"a", "b"}  # no double-claim
        assert second.claim(worker="w2") is None


class TestConfig:
    def test_lease_seconds_from_env(self, monkeypatch):
        monkeypatch.setenv(LEASE_SECONDS_ENV, "7.5")
        assert resolve_lease_seconds() == 7.5
        assert resolve_lease_seconds(3.0) == 3.0  # explicit wins

    def test_bad_lease_seconds_rejected(self, monkeypatch):
        monkeypatch.setenv(LEASE_SECONDS_ENV, "soon")
        with pytest.raises(ValueError, match="must be a number"):
            resolve_lease_seconds()
        with pytest.raises(ValueError, match="> 0"):
            resolve_lease_seconds(0)

    def test_max_leases_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max_leases"):
            WorkQueue(tmp_path / "q", max_leases=0)
