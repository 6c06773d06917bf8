"""Wall-clock accounting for parallel grids.

Every parallelized surface (zoo builds, experiment grids) records one
:class:`CellTiming` per unit of work and wraps them in a
:class:`GridTiming` carrying the grid's end-to-end wall clock, so the
perf trajectory of the execution engine is measured, not guessed:
``cell_seconds / wall_seconds`` estimates the achieved parallel speedup.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass(frozen=True)
class CellTiming:
    """Wall clock of one unit of work (one artifact, one eval cell)."""

    key: str
    seconds: float
    cached: bool = False  # satisfied from cache rather than computed


@dataclass
class GridTiming:
    """Wall clock of one dispatched grid and its constituent cells.

    A grid run with ``on_error="collect"`` also carries its dead cells:
    ``failures`` holds the structured
    :class:`~repro.resilience.failures.CellFailure` records and
    ``manifest_path`` points at the persisted failure manifest (both
    empty/None for a fully successful run).
    """

    label: str
    jobs: int
    wall_seconds: float
    cells: list[CellTiming] = field(default_factory=list)
    failures: list = field(default_factory=list)
    manifest_path: str | None = None

    @property
    def degraded(self) -> bool:
        """True when the grid completed without some of its cells."""
        return bool(self.failures)

    @property
    def cell_seconds(self) -> float:
        """Total compute inside cells (≥ wall_seconds when parallel)."""
        return float(sum(c.seconds for c in self.cells))

    @property
    def computed_cells(self) -> list[CellTiming]:
        """Cells that actually ran (cache hits are ≈0 s probes)."""
        return [c for c in self.cells if not c.cached]

    @property
    def computed_seconds(self) -> float:
        """Total compute inside non-cached cells."""
        return float(sum(c.seconds for c in self.computed_cells))

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cells satisfied from cache (0 for an empty grid)."""
        return (
            sum(1 for c in self.cells if c.cached) / len(self.cells)
            if self.cells
            else 0.0
        )

    @property
    def throughput(self) -> float:
        """Computed (non-cached) cells per wall-clock second.

        Cache hits are excluded: counting ≈0 s probes as completed work
        would report a warm cache as a fast grid.
        """
        n = len(self.computed_cells)
        return n / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Achieved parallel speedup estimate (computed cell time / wall time).

        Only computed cells enter the numerator; mixing in cached cells
        would inflate the reported speedup whenever the cache is warm.
        """
        return (
            self.computed_seconds / self.wall_seconds if self.wall_seconds > 0 else 0.0
        )

    def record(self) -> "GridTiming":
        """Emit this grid's summary into the run ledger (no-op when
        observation is disabled); returns self so dispatch sites can chain
        ``GridTiming(...).record()``."""
        # Lazy import: repro.parallel is imported early (the locks back
        # the serialization layer), so it stays free of repro.observe.
        from repro import observe

        observe.event(
            "grid",
            label=self.label,
            jobs=self.jobs,
            wall_seconds=self.wall_seconds,
            cells=len(self.cells),
            computed=len(self.computed_cells),
            cache_hit_rate=self.cache_hit_rate,
            speedup=self.speedup,
            failed=len(self.failures),
        )
        return self

    def summary(self) -> str:
        degraded = (
            f", {len(self.failures)} FAILED" if self.failures else ""
        )
        return (
            f"{self.label}: {len(self.cells)} cells "
            f"({len(self.computed_cells)} computed, "
            f"hit rate {self.cache_hit_rate:.0%}{degraded}) in {self.wall_seconds:.2f}s "
            f"(jobs={self.jobs}, {self.throughput:.2f} cells/s, "
            f"speedup≈{self.speedup:.2f}x)"
        )


@contextmanager
def stopwatch() -> Iterator[Callable[[], float]]:
    """Yield a callable returning the elapsed seconds since entry."""
    t0 = time.perf_counter()
    yield lambda: time.perf_counter() - t0


def grid_timing(
    label: str, jobs: int, wall_seconds: float, cells: list[CellTiming]
) -> GridTiming:
    """Convenience constructor mirroring the dispatch-site call shape."""
    return GridTiming(label=label, jobs=jobs, wall_seconds=wall_seconds, cells=cells)
