"""Structured failure records: per-cell failures and grid manifests.

When a grid runs with ``on_error="collect"`` the surviving cells complete
and every dead cell becomes one :class:`CellFailure` — what failed (the
cell key and an optional caller-supplied payload that can reconstruct the
cell), how it failed (exception / crash / timeout / dependency, with the
remote traceback), and how hard the engine tried (attempt count,
retryable classification).  The grid's failures are persisted as one
:class:`FailureManifest` JSON file next to the artifacts it failed to
produce, which is both the post-mortem record and the input to
``python -m repro zoo --resume <manifest>``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable

#: ``CellFailure.kind`` values.
KIND_EXCEPTION = "exception"  # fn raised inside the worker
KIND_CRASH = "crash"  # worker process died without reporting a result
KIND_TIMEOUT = "timeout"  # cell exceeded its deadline; worker was replaced
KIND_DEPENDENCY = "dependency"  # an upstream cell (e.g. the parent) failed


def _wall_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S")


@dataclass(frozen=True)
class CellFailure:
    """One grid cell that exhausted its retry budget."""

    key: str
    index: int
    kind: str
    error_type: str
    message: str
    attempts: int = 1
    remote_traceback: str = ""
    retryable: bool = False
    payload: dict[str, Any] | None = None
    #: Wall-clock time the failure was recorded (auto-stamped); lets a
    #: post-mortem line failures up against the run ledger, and lets a
    #: manifest accumulated across retries keep only the latest record.
    timestamp: str = ""

    def __post_init__(self):
        if not self.timestamp:
            object.__setattr__(self, "timestamp", _wall_stamp())

    def describe(self) -> str:
        """One human line: ``key: kind ErrorType: message (n attempts)``."""
        return (
            f"{self.key}: {self.kind} {self.error_type}: {self.message} "
            f"({self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )

    def with_payload(self, payload: dict[str, Any] | None) -> "CellFailure":
        import dataclasses

        return dataclasses.replace(self, payload=payload)


@dataclass
class FailureManifest:
    """All failures of one degraded grid run, JSON-persistable."""

    label: str
    failures: list[CellFailure] = field(default_factory=list)
    total_cells: int = 0
    scale_digest: str | None = None
    created: str = ""

    def __post_init__(self):
        if not self.created:
            self.created = time.strftime("%Y-%m-%dT%H:%M:%S")

    def __len__(self) -> int:
        return len(self.failures)

    def __iter__(self):
        return iter(self.failures)

    @property
    def keys(self) -> list[str]:
        return [f.key for f in self.failures]

    def extend(self, failures: Iterable[CellFailure]) -> None:
        self.failures.extend(failures)

    def summary(self) -> str:
        kinds: dict[str, int] = {}
        for f in self.failures:
            kinds[f.kind] = kinds.get(f.kind, 0) + 1
        breakdown = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        return (
            f"{self.label}: {len(self.failures)}/{self.total_cells} cells failed"
            + (f" ({breakdown})" if breakdown else "")
        )

    # ------------------------------------------------------- persistence
    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "created": self.created,
            "scale_digest": self.scale_digest,
            "total_cells": self.total_cells,
            "failures": [asdict(f) for f in self.failures],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "FailureManifest":
        return cls(
            label=str(data.get("label", "?")),
            created=str(data.get("created", "")),
            scale_digest=data.get("scale_digest"),
            total_cells=int(data.get("total_cells", 0)),
            failures=[CellFailure(**f) for f in data.get("failures", [])],
        )

    def deduped(self) -> list[CellFailure]:
        """Entries collapsed on ``(key, kind)``, keeping the latest record.

        A cell retried across several degraded rounds (or merged from
        several manifests) accumulates one entry per round; only the most
        recent one matters for resume and post-mortems.  Order follows the
        first occurrence of each ``(key, kind)``.
        """
        latest: dict[tuple[str, str], CellFailure] = {}
        for failure in self.failures:
            latest[(failure.key, failure.kind)] = failure
        return list(latest.values())

    def save(self, path: str | Path) -> Path:
        """Atomically publish this manifest to ``path`` (JSON).

        Identical ``(key, kind)`` entries accumulated across retries are
        deduplicated (latest wins) before the write.
        """
        from repro.parallel.locks import atomic_write

        self.failures = self.deduped()
        path = Path(path)
        with atomic_write(path) as tmp:
            tmp.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FailureManifest":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise
        except Exception as exc:
            raise ValueError(f"unreadable failure manifest {path}: {exc}") from exc
        if not isinstance(data, dict) or "failures" not in data:
            raise ValueError(f"{path} is not a failure manifest")
        return cls.from_dict(data)


def default_manifest_path(directory: str | Path, label: str) -> Path:
    """Where a grid persists its manifest: ``failures-<label>-<stamp>.json``.

    The pid suffix keeps two grids degrading in the same second (e.g.
    racing builders) from clobbering each other's manifests.
    """
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in label)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path(directory) / f"failures-{safe}-{stamp}-{os.getpid()}.json"
