"""Shared graceful-degradation plumbing for experiment grids.

Every study grid (corruption, noise, prune curves, robust) follows the
same resilient dispatch shape: build the zoo artifacts it needs, skip
evaluation cells whose zoo dependency died (``dependency`` failures
instead of retraining a doomed parent inline), fan the surviving cells
out with ``on_error="collect"``, and persist one
:class:`~repro.resilience.failures.FailureManifest` covering both
phases.  This module holds the pieces those grids compose so the policy
lives in one place.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Sequence

from repro import observe
from repro.parallel import GridTiming, parallel_map
from repro.resilience import CellFailure, FailureManifest
from repro.resilience.failures import KIND_DEPENDENCY, default_manifest_path


def dispatch_cells(
    fn: Callable,
    payloads: Sequence,
    keys: Sequence[str],
    *,
    jobs: int | None = None,
    on_error: str = "raise",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
    queue_dir: str | Path | None = None,
) -> tuple[list, list[CellFailure]]:
    """Fan a grid's evaluation cells out; returns ``(results, failures)``.

    ``results`` is always aligned with ``payloads``: in collect mode a
    dead cell leaves a ``None`` hole (and one :class:`CellFailure`), in
    raise mode the first failure propagates so there are no holes.
    ``queue_dir`` pins the work-queue directory (see
    :func:`repro.parallel.parallel_map`).
    """
    out = parallel_map(
        fn,
        list(payloads),
        jobs=jobs,
        on_error=on_error,
        max_retries=max_retries,
        timeout=cell_timeout,
        keys=list(keys),
        queue_dir=queue_dir,
    )
    if on_error == "collect":
        return list(out.results), list(out.failures)
    return list(out), []


def dependency_failure(
    key: str, index: int, upstream: str, payload: dict[str, Any] | None = None
) -> CellFailure:
    """A cell skipped because an upstream cell (e.g. its zoo artifact) died."""
    return CellFailure(
        key=key,
        index=index,
        kind=KIND_DEPENDENCY,
        error_type="DependencyFailed",
        message=f"upstream cell {upstream} failed",
        attempts=0,
        payload=payload,
    )


def failed_repetitions(zoo_timing: GridTiming) -> set[int]:
    """Repetitions with at least one dead zoo artifact in a degraded build.

    Evaluation cells of these repetitions would call ``get_prune_run``
    inline and re-attempt the training that just failed; grids skip them
    as ``dependency`` failures instead.
    """
    reps: set[int] = set()
    for failure in zoo_timing.failures:
        payload = failure.payload or {}
        if payload.get("kind") == "zoo":
            reps.add(int(payload.get("repetition", -1)))
    return reps


def persist_manifest(
    label: str,
    failures: Sequence[CellFailure],
    total_cells: int,
    scale,
    manifest_dir: str | Path | None = None,
) -> str | None:
    """Persist a degraded grid's manifest next to the artifacts.

    Returns the manifest path, or ``None`` for a clean grid.  The scale
    digest is recorded so ``--resume`` refuses to replay the manifest
    against a different cache namespace.
    """
    if not failures:
        return None
    # Lazy import: repro.experiments.zoo imports this module.
    from repro.experiments.zoo import cache_dir

    manifest = FailureManifest(
        label=label,
        failures=list(failures),
        total_cells=total_cells,
        scale_digest=scale.digest(),
    )
    directory = Path(manifest_dir) if manifest_dir else cache_dir()
    path = manifest.save(default_manifest_path(directory, label))
    observe.event(
        "degraded",
        label=label,
        failed=len(failures),
        total=total_cells,
        manifest=str(path),
    )
    return str(path)
