"""The serving layer's clocks (defined in :mod:`repro.utils.clock`)."""

from repro.utils.clock import Clock, MonotonicClock, VirtualClock, WallClock

__all__ = ["Clock", "MonotonicClock", "VirtualClock", "WallClock"]
