"""Injectable clocks: the seam that makes serving and the work queue simulable.

Every time-dependent decision in :mod:`repro.serve` — batch coalescing
windows, request deadlines, retry backoff, latency accounting — and in
:mod:`repro.queue` — lease expiries, heartbeats, retry backoff — reads
one :class:`Clock`.  Production uses :class:`MonotonicClock` or
:class:`WallClock`; tests and the load harness use :class:`VirtualClock`,
which only moves when told to, so hundreds of simulated seconds run in
microseconds with zero wall-clock sleeps and bit-identical outcomes.

The module imports nothing from the package, so the work queue — which
every grid runs on — does not load the serving stack.
"""

from __future__ import annotations

import time


class Clock:
    """Interface: ``now()``, ``sleep(s)``, ``advance_to(t)``, ``virtual``."""

    #: True when time only moves on demand (sleeps are free).  The server
    #: uses this to decide whether measured service time must be *added*
    #: to the clock (virtual) or has already passed (wall).
    virtual: bool = False

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError

    def advance_to(self, t: float) -> None:
        """Move time forward to ``t`` (no-op if ``t`` is in the past)."""
        delta = t - self.now()
        if delta > 0:
            self.sleep(delta)


class MonotonicClock(Clock):
    """Wall time via ``time.monotonic``; ``sleep`` really sleeps."""

    virtual = False

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class WallClock(Clock):
    """Epoch wall time via ``time.time``; ``sleep`` really sleeps.

    Used where timestamps must be meaningful *across* processes and hosts
    — lease expiries in the :mod:`repro.queue` journal are absolute epoch
    seconds written by one worker and compared by another, which
    ``time.monotonic`` (whose origin is per-boot, per-host) cannot
    support.
    """

    virtual = False

    def now(self) -> float:
        return time.time()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock(Clock):
    """Deterministic manual time: ``sleep``/``advance_to`` just move ``now``.

    Never blocks — a test drives the schedule explicitly, so flush windows
    and deadlines fire exactly when the test says they do.
    """

    virtual = True

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot sleep a negative duration: {seconds}")
        self._now += seconds

    def advance_to(self, t: float) -> None:
        if t > self._now:
            self._now = float(t)
