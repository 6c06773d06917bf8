"""The JSONL run ledger: crash-safe appends and worker-stream merging.

One observation record is one JSON line.  Writers append and flush each
line, so a crash (or a worker teardown signal) loses at most the line in
flight; :func:`read_events` tolerates a torn final line by skipping
anything that does not parse.  Worker processes never share a file
handle with the parent — each writes its own ``*.worker-<pid>.jsonl``
sibling stream, and :func:`merge_worker_streams` folds those into the
main ledger under the per-artifact file lock from
:mod:`repro.parallel.locks` (the driver calls it when every grid ends).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator


class LedgerWriter:
    """Append-one-JSON-line-per-record writer with per-record flush."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = None

    def write(self, record: dict) -> None:
        from repro.observe.core import dumps

        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(dumps(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def worker_stream_path(ledger_path: str | Path, pid: int) -> Path:
    """The sibling stream a worker process with ``pid`` appends to."""
    ledger_path = Path(ledger_path)
    return ledger_path.with_name(f"{ledger_path.stem}.worker-{pid}.jsonl")


def _worker_streams(ledger_path: Path) -> list[Path]:
    return sorted(ledger_path.parent.glob(f"{ledger_path.stem}.worker-*.jsonl"))


def iter_events(path: str | Path) -> Iterator[dict]:
    """Parse one ledger stream, skipping blank or torn (unparseable) lines."""
    path = Path(path)
    if not path.exists():
        return
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of a crashed writer
            if isinstance(record, dict):
                yield record


def read_events(path: str | Path) -> list[dict]:
    """All records of ``path`` plus any unmerged worker streams, in order.

    Reading through the worker streams makes the ledger usable even if a
    crash prevented the final merge; records are ordered by timestamp so
    interleaved processes read chronologically.
    """
    path = Path(path)
    events = list(iter_events(path))
    for stream in _worker_streams(path):
        events.extend(iter_events(stream))
    events.sort(key=lambda r: r.get("ts", 0.0))
    return events


def merge_worker_streams(ledger_path: str | Path | None = None) -> int:
    """Fold ``*.worker-<pid>.jsonl`` streams into the main ledger.

    Called by the driver when each grid ends.  The append runs under the
    ledger's file lock so two racing parents (e.g. nested grids) cannot
    interleave half-merged streams; merged worker files are removed.
    Returns the number of records merged.  No-op when observation is
    disabled.
    """
    if ledger_path is None:
        from repro.observe.core import current_ledger_path

        ledger_path = current_ledger_path()
        if ledger_path is None:
            return 0
    ledger_path = Path(ledger_path)
    streams = _worker_streams(ledger_path)
    if not streams:
        return 0
    # Imported lazily: the grid executor (repro.queue.executor) and the
    # locks' package import this package at module level, so a top-level
    # import here would be circular.
    from repro.observe.core import dumps
    from repro.parallel.locks import artifact_lock

    merged = 0
    with artifact_lock(ledger_path):
        with open(ledger_path, "a", encoding="utf-8") as fh:
            for stream in streams:
                for record in iter_events(stream):
                    fh.write(dumps(record) + "\n")
                    merged += 1
                fh.flush()
                stream.unlink(missing_ok=True)
    return merged
