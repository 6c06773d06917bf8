"""Fast chaos smoke: injected faults flow through the engine and recover.

This is the tier-1 companion to the nightly chaos suite: milliseconds,
fully deterministic, and it exercises the full injection → classification
→ retry → recovery loop end to end through ``parallel_map``.
"""

from __future__ import annotations

import pytest

from repro.parallel import parallel_map
from repro.resilience import chaos
from repro.resilience.chaos import ChaosError


@pytest.fixture(autouse=True)
def chaos_isolation(monkeypatch, tmp_path):
    # Failed grids keep their queue journal: keep it out of the shared cache.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    monkeypatch.delenv(chaos.OWNER_ENV, raising=False)
    chaos.disable()
    yield
    chaos.disable()


def _double(x):
    return 2 * x


def test_injected_exceptions_recover_on_retry():
    # Every cell fails its first attempt, then runs clean: the map must
    # converge with one retry per cell and zero failures.
    chaos.configure(exception_rate=1.0, seed=2, first_attempts_only=1)
    out = parallel_map(
        _double,
        list(range(6)),
        jobs=1,
        on_error="collect",
        max_retries=1,
    )
    assert out.ok
    assert out.results == [0, 2, 4, 6, 8, 10]
    assert out.retries == 6


def test_exhausted_chaos_lands_in_the_failure_record():
    chaos.configure(exception_rate=1.0, seed=2)  # fails on every attempt
    out = parallel_map(
        _double,
        [1],
        jobs=1,
        on_error="collect",
        max_retries=1,
    )
    assert not out.ok
    (failure,) = out.failures
    assert failure.error_type == "ChaosError"
    assert failure.retryable and failure.attempts == 2


def test_raise_mode_surfaces_the_chaos_error():
    chaos.configure(exception_rate=1.0, seed=2)
    with pytest.raises(ChaosError, match="injected worker exception"):
        parallel_map(
            _double,
            [1],
            jobs=1,
            max_retries=0,
        )
