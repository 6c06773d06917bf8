"""Chaos on the queue: lease kills mid-claim.

Tier-1 covers the injection site inline (owner-degraded ChaosError on a
VirtualClock).  The tier-2 test is the acceptance scenario: a MICRO zoo
grid on the work queue with two local worker processes where
chaos SIGKILLs every first lease — the supervisor must reclaim and
respawn until the grid completes with zero lost cells, and the artifacts
must be bitwise identical to an undisturbed single-process build.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import SMOKE, ZooSpec, zoo
from repro.queue import TaskSpec, WorkQueue, run_worker, task_fn_path
from repro.queue.core import DONE, QUARANTINED
from repro.resilience import chaos
from repro.resilience.chaos import ChaosError
from repro.utils.clock import VirtualClock

MICRO = SMOKE.with_(
    n_train=48, n_test=24, image_size=8, num_classes=4, base_width=2,
    parent_epochs=1, retrain_epochs=0, target_ratios=(0.4,), n_repetitions=1,
)


@pytest.fixture(autouse=True)
def chaos_isolation(monkeypatch):
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    monkeypatch.delenv(chaos.OWNER_ENV, raising=False)
    chaos.disable()
    yield
    chaos.disable()


def double(payload):
    """Module-level task so its path survives the journal round-trip."""
    return payload * 2


class TestOnQueueTaskInline:
    def test_owner_degrades_kill_to_chaos_error(self):
        chaos.configure(lease_kill_rate=1.0, seed=7)
        with pytest.raises(ChaosError, match="lease kill"):
            chaos.on_queue_task("cell-a", attempt=0)

    def test_first_attempts_only_spares_the_retry(self):
        chaos.configure(lease_kill_rate=1.0, seed=7, first_attempts_only=1)
        with pytest.raises(ChaosError):
            chaos.on_queue_task("cell-a", attempt=0)
        chaos.on_queue_task("cell-a", attempt=1)  # must not raise

    def test_inline_worker_recovers_after_injected_kill(self, tmp_path):
        """Inline (owner) worker: the injected kill becomes a journaled
        failure, and the next lease — spared by ``first_attempts_only``
        — completes the task."""
        chaos.configure(lease_kill_rate=1.0, seed=7, first_attempts_only=1)
        queue = WorkQueue(
            tmp_path / "q", clock=VirtualClock(), lease_seconds=10.0,
            max_leases=3,
        )
        queue.enqueue(
            [TaskSpec(key="k", fn=task_fn_path(double), payload=4)]
        )
        report = run_worker(queue, worker_id="w")
        assert report.failed == 1  # attempt 0: injected ChaosError
        assert report.completed == 1  # attempt 1: survives
        assert queue.counts()[DONE] == 1
        assert queue.load_result("k") == 8


def _artifact_digests(cache_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in cache_dir.glob("*.npz")
    }


def _journal_ops(queue_dir, op):
    total = 0
    for journal in queue_dir.rglob("journal.jsonl"):
        with open(journal, encoding="utf-8") as fh:
            total += sum(
                1 for line in fh if json.loads(line).get("op") == op
            )
    return total


@pytest.mark.tier2
class TestLeaseKillEndToEnd:
    def test_sigkilled_workers_lose_no_cells(self, tmp_path, monkeypatch):
        """Acceptance: two worker processes, every first lease SIGKILLed
        mid-cell; the grid completes, nothing is lost, and the artifacts
        match an undisturbed single-process build bit for bit."""
        specs = [ZooSpec("cifar", "resnet20", m, 0) for m in ("wt", "ft")]

        # Baseline: single-process (inline worker) build, no chaos.
        baseline_cache = tmp_path / "baseline"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(baseline_cache))
        zoo.build_zoo(specs, MICRO, jobs=1)
        baseline = _artifact_digests(baseline_cache)
        assert len(baseline) == 3  # parent + wt + ft

        # Chaos build: worker processes inherit the exported plan and,
        # not being the chaos owner, really SIGKILL themselves on every
        # first lease.  Short leases keep reclamation fast.
        chaos_cache = tmp_path / "chaos"
        queue_dir = tmp_path / "queue"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(chaos_cache))
        monkeypatch.setenv("REPRO_LEASE_SECONDS", "2.0")
        chaos.configure(lease_kill_rate=1.0, seed=7, first_attempts_only=1)
        timing = zoo.build_zoo(specs, MICRO, jobs=2, queue_dir=queue_dir)
        chaos.disable()

        assert not timing.degraded  # zero lost cells
        assert len(timing.cells) == 3
        # Every task's first lease died and was reclaimed, none poisoned.
        assert _journal_ops(queue_dir, "reclaim") >= 1
        assert _journal_ops(queue_dir, "quarantine") == 0
        assert _artifact_digests(chaos_cache) == baseline  # bitwise equal
