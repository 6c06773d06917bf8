"""parallel_map on the work queue: the inline ``jobs=1`` worker on a
VirtualClock (no subprocesses, no wall sleeps), queue-directory
derivation, grid identity, resume and clean-up."""

from __future__ import annotations

import math
import operator

import pytest

from repro.parallel import MapOutcome, WorkerError, parallel_map
from repro.queue import QUEUE_DIR_ENV, Journal
from repro.queue.executor import resolve_queue_dir
from repro.resilience import RetryPolicy
from repro.resilience.failures import KIND_EXCEPTION
from repro.utils.clock import VirtualClock


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv(QUEUE_DIR_ENV, raising=False)


def run(items=(1.0, 4.0, 9.0), keys=("a", "b", "c"), **kw):
    kw.setdefault("jobs", 1)
    kw.setdefault("clock", VirtualClock())
    return parallel_map(math.sqrt, list(items), keys=list(keys), **kw)


def always_oserror(x):
    """Module-level task failing with a retryable error on every attempt."""
    raise OSError(f"transient hiccup on {x!r}")


def journal_records(queue_dir, op):
    return [r for r in Journal(queue_dir / "journal.jsonl").read_all() if r["op"] == op]


def grid_dirs(tmp_path):
    root = tmp_path / "cache" / "queue"
    return sorted(root.iterdir()) if root.exists() else []


class TestResolveQueueDir:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(QUEUE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_queue_dir(tmp_path / "mine", "m:f", ["k"], [1]) == (
            tmp_path / "mine",
            False,
        )
        assert resolve_queue_dir(None, "m:f", ["k"], [1]) == (tmp_path / "env", False)

    def test_derived_dir_is_stable_per_grid(self):
        first, derived = resolve_queue_dir(None, "m:f", ["k1", "k2"], [1, 2])
        assert derived
        same, _ = resolve_queue_dir(None, "m:f", ["k2", "k1"], [2, 1])
        assert same == first  # order-free
        assert first != resolve_queue_dir(None, "m:f", ["k1", "k3"], [1, 2])[0]
        assert first != resolve_queue_dir(None, "m:g", ["k1", "k2"], [1, 2])[0]
        # Same keys, other payloads: another grid (e.g. rep0 of two models).
        assert first != resolve_queue_dir(None, "m:f", ["k1", "k2"], [1, 3])[0]


class TestQueueMap:
    def test_ordered_results_match_items(self):
        assert run() == [1.0, 2.0, 3.0]

    def test_failure_raises_worker_error_by_default(self):
        with pytest.raises(WorkerError, match="TypeError"):
            parallel_map(
                operator.neg, ["not-a-number", 1], jobs=2, keys=["bad", "ok"],
                max_retries=0,
            )

    def test_failure_raises_the_cells_own_error_inline(self):
        with pytest.raises(TypeError):
            parallel_map(
                operator.neg,
                ["not-a-number"],
                jobs=1,
                keys=["bad"],
                clock=VirtualClock(),
                max_retries=0,
            )

    def test_collect_mode_returns_quarantine_failures(self):
        out = parallel_map(
            operator.neg,
            [1, "bad", 3],
            jobs=1,
            keys=["k0", "k1", "k2"],
            clock=VirtualClock(),
            on_error="collect",
            max_retries=1,
        )
        assert isinstance(out, MapOutcome)
        assert out.results == [-1, None, -3]
        [failure] = out.failures
        assert failure.kind == KIND_EXCEPTION
        assert (failure.key, failure.index) == ("k1", 1)
        assert failure.attempts == 1  # deterministic TypeError: never retried
        assert not failure.retryable
        assert out.successes() == [-1, -3]

    def test_collect_mode_retries_a_retryable_error(self):
        out = parallel_map(
            always_oserror,
            [1],
            jobs=1,
            keys=["k0"],
            clock=VirtualClock(),
            on_error="collect",
            max_retries=1,
        )
        [failure] = out.failures
        assert failure.error_type == "OSError" and failure.retryable
        assert failure.attempts == 2  # max_retries=1 -> 2 leases
        assert out.retries == 1

    def test_retries_wait_out_the_seeded_backoff(self, tmp_path):
        queue_dir = tmp_path / "grid"
        parallel_map(
            always_oserror,
            [1],
            jobs=1,
            keys=["k0"],
            clock=VirtualClock(),
            on_error="collect",
            max_retries=2,
            queue_dir=queue_dir,
        )
        fails = journal_records(queue_dir, "fail")
        claims = journal_records(queue_dir, "claim")
        assert len(fails) == len(claims) == 3
        policy = RetryPolicy()
        for attempt, (fail, claim) in enumerate(zip(fails[:2], claims[1:]), 1):
            assert fail["retry_at"] - fail["ts"] == pytest.approx(
                policy.backoff(attempt, "k0")
            )
            assert claim["ts"] >= fail["retry_at"]  # not claimable before
        assert "retry_at" not in fails[2]  # budget spent: quarantined

    def test_rerun_resumes_from_journal(self, tmp_path):
        queue_dir = tmp_path / "grid"
        assert run(queue_dir=queue_dir) == [1.0, 2.0, 3.0]
        claims_before = len(journal_records(queue_dir, "claim"))
        assert run(queue_dir=queue_dir) == [1.0, 2.0, 3.0]
        assert claims_before == 3
        assert len(journal_records(queue_dir, "claim")) == 3  # served from results

    def test_rerun_rearms_quarantined_cells(self, tmp_path):
        queue_dir = tmp_path / "grid"
        kw = dict(
            jobs=1, keys=["k0", "k1"], clock=VirtualClock(), on_error="collect",
            max_retries=0, queue_dir=queue_dir,
        )
        first = parallel_map(operator.neg, [1, "bad"], **kw)
        second = parallel_map(operator.neg, [1, "bad"], **kw)
        assert first.failed_indices == second.failed_indices == [1]
        claims = [r["task"] for r in journal_records(queue_dir, "claim")]
        assert claims == ["k0", "k1", "k1"]  # k0 resumed, k1 re-run

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="unique cell keys"):
            run(keys=("a", "a", "c"))



class TestParallelMapSeam:
    def test_parallel_map_routes_to_queue(self, tmp_path):
        result = parallel_map(
            math.sqrt, [1.0, 16.0], jobs=1, keys=["a", "b"],
            queue_dir=tmp_path / "via-seam",
        )
        assert result == [1.0, 4.0]
        assert (tmp_path / "via-seam" / "journal.jsonl").exists()

    def test_env_routes_to_queue(self, tmp_path, monkeypatch):
        monkeypatch.setenv(QUEUE_DIR_ENV, str(tmp_path / "via-env"))
        assert parallel_map(math.sqrt, [25.0], jobs=1, keys=["a"]) == [5.0]
        assert (tmp_path / "via-env" / "journal.jsonl").exists()


class TestGridIdentity:
    def test_grids_sharing_keys_do_not_share_results(self):
        """Regression: the derived directory hashed only the function and
        the keys, so a second grid with the same keys (``rep0``/``rep1``
        of another model) was served the first grid's results."""
        keys = ["rep0", "rep1"]
        assert parallel_map(abs, [-1, -2], jobs=1, keys=keys) == [1, 2]
        assert parallel_map(abs, [-10, -20], jobs=1, keys=keys) == [10, 20]

    def test_pinned_dir_rejects_another_grid(self, tmp_path):
        queue_dir = tmp_path / "shared"
        keys = ["rep0", "rep1"]
        assert parallel_map(abs, [-1, -2], keys=keys, queue_dir=queue_dir) == [1, 2]
        with pytest.raises(ValueError, match="different function or payload"):
            parallel_map(abs, [-10, -20], keys=keys, queue_dir=queue_dir)


class TestDerivedDirLifetime:
    def test_clean_run_removes_its_derived_dir(self, tmp_path):
        assert run() == [1.0, 2.0, 3.0]
        assert grid_dirs(tmp_path) == []

    def test_run_with_failures_keeps_its_derived_dir(self, tmp_path):
        out = parallel_map(
            operator.neg, [1, "bad"], jobs=1, keys=["k0", "k1"],
            clock=VirtualClock(), on_error="collect", max_retries=0,
        )
        assert out.failed_indices == [1]
        [kept] = grid_dirs(tmp_path)
        assert (kept / "journal.jsonl").exists()

    def test_pinned_dir_outlives_a_clean_run(self, tmp_path):
        assert run(queue_dir=tmp_path / "grid") == [1.0, 2.0, 3.0]
        assert (tmp_path / "grid" / "journal.jsonl").exists()

    def test_raise_mode_failure_keeps_the_journal(self, tmp_path):
        with pytest.raises(WorkerError):
            parallel_map(
                always_oserror, [1, 2], jobs=2, keys=["k0", "k1"], max_retries=0
            )
        assert len(grid_dirs(tmp_path)) == 1
