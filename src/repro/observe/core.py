"""Observation state: configuration, spans, events, and metric emitters.

Everything funnels into :func:`_emit`, which appends one JSON line to the
process's ledger stream (see :mod:`repro.observe.ledger`).  The module is
deliberately free of top-level ``repro.*`` imports so any subsystem —
including the grid executor (:mod:`repro.queue.executor`), which this
package's ledger merge serves — can import it without cycles.

Process model
-------------
The process that calls :func:`configure` (or first emits under
``REPRO_OBSERVE=1``) owns the run ledger and writes to it directly.  The
configuration is exported through environment variables
(``REPRO_OBSERVE_LEDGER``), so worker processes — whether forked (inherit
this module's state) or spawned (re-read the environment) — detect that
their pid differs from the owner's and write to a sibling
``*.worker-<pid>.jsonl`` stream instead; the parent merges those on pool
join.  Span parentage crosses the fork: a cell span opened in a forked
worker records the parent process's enclosing span as its parent, so the
merged ledger renders as one tree.

Disabled fast path
------------------
With ``REPRO_OBSERVE`` unset every public function returns immediately
after one dict lookup, and :func:`span` returns the shared
:data:`NULL_SPAN` context manager without allocating anything, so
instrumented hot paths cost effectively nothing.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterator

ENV_VAR = "REPRO_OBSERVE"
DIR_ENV = "REPRO_OBSERVE_DIR"
LEDGER_ENV = "REPRO_OBSERVE_LEDGER"
DEFAULT_DIR = ".cache/repro/observe"

_FALSY = ("", "0", "false", "off", "no")


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() not in _FALSY


class _State:
    """Per-process observation state (ledger writer + open span stack)."""

    __slots__ = ("ledger_path", "pid", "writer", "stack", "next_id")

    def __init__(self, ledger_path: Path):
        from repro.observe.ledger import LedgerWriter, worker_stream_path

        self.ledger_path = Path(ledger_path)
        self.pid = os.getpid()
        owner = os.environ.get(LEDGER_ENV + "_OWNER", "")
        is_worker = owner.isdigit() and int(owner) != self.pid
        target = (
            worker_stream_path(self.ledger_path, self.pid)
            if is_worker
            else self.ledger_path
        )
        self.writer = LedgerWriter(target)
        self.stack: list[Span] = []
        self.next_id = 0


_state: _State | None = None


def _get_state() -> _State | None:
    """The active state, re-targeted after a fork, or ``None`` if disabled.

    The check order keeps the disabled path to one dict lookup: explicit
    :func:`configure` wins, then the environment (which also lets a child
    process of a configured run attach itself)."""
    global _state
    if _state is None:
        if not _env_enabled():
            return None
        ledger = os.environ.get(LEDGER_ENV, "").strip()
        path = Path(ledger) if ledger else _default_ledger_path()
        if not ledger:
            _export_env(path)
        _state = _State(path)
    elif _state.pid != os.getpid():
        # Forked child: inherit the run (and the open span stack, so spans
        # recorded here keep their cross-process parents) but write to a
        # private worker stream; the inherited file handle is abandoned.
        _state = _fork_attach(_state)
    return _state


def _fork_attach(parent_state: _State) -> _State:
    state = _State(parent_state.ledger_path)
    state.stack = list(parent_state.stack)
    return state


def _default_ledger_path() -> Path:
    directory = Path(os.environ.get(DIR_ENV, "").strip() or DEFAULT_DIR)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = directory / f"run-{stamp}-{os.getpid()}.jsonl"
    n = 1
    while path.exists():  # same process+second: probe for a fresh run file
        n += 1
        path = directory / f"run-{stamp}-{os.getpid()}-{n}.jsonl"
    return path


def _export_env(path: Path) -> None:
    os.environ[LEDGER_ENV] = str(path)
    os.environ[LEDGER_ENV + "_OWNER"] = str(os.getpid())


def configure(
    dir: str | Path | None = None,
    path: str | Path | None = None,
) -> Path:
    """Enable observation for this process tree and return the ledger path.

    ``path`` names the ledger file exactly; otherwise a timestamped
    ``run-*.jsonl`` is created under ``dir`` (default: ``REPRO_OBSERVE_DIR``
    or ``.cache/repro/observe``).  Also sets ``REPRO_OBSERVE=1`` plus the
    ledger-path variables so worker processes attach automatically.
    """
    global _state
    shutdown()
    if path is None:
        directory = Path(dir) if dir is not None else None
        if directory is not None:
            os.environ[DIR_ENV] = str(directory)
        path = _default_ledger_path()
    os.environ[ENV_VAR] = "1"
    _export_env(Path(path))
    _state = _State(Path(path))
    return _state.ledger_path


def shutdown() -> None:
    """Flush and disable observation in this process (test teardown hook).

    Clears both the in-process state and the exported environment, so a
    subsequent :func:`enabled` reflects only the caller's environment.
    """
    global _state
    if _state is not None:
        _state.writer.close()
        _state = None
    for key in (ENV_VAR, LEDGER_ENV, LEDGER_ENV + "_OWNER"):
        os.environ.pop(key, None)


def enabled() -> bool:
    """True when this process is recording (configured or env-enabled)."""
    return _state is not None or _env_enabled()


def current_ledger_path() -> Path | None:
    """The active run's ledger path, or ``None`` when disabled."""
    state = _get_state()
    return None if state is None else state.ledger_path


# ------------------------------------------------------------------ emission


def _emit(state: _State, record: dict) -> None:
    record["ts"] = time.time()
    record["pid"] = state.pid
    if state.stack:
        record.setdefault("span", state.stack[-1].span_id)
    state.writer.write(record)


def event(name: str, **attrs: Any) -> None:
    """Record a point-in-time event with arbitrary JSON-able attributes."""
    state = _get_state()
    if state is None:
        return
    _emit(state, {"type": "event", "name": name, "attrs": attrs})


def incr(name: str, value: float = 1, **attrs: Any) -> None:
    """Increment counter ``name`` (rolled up as a sum by the trace report)."""
    state = _get_state()
    if state is None:
        return
    _emit(state, {"type": "counter", "name": name, "value": value, "attrs": attrs})


def gauge(name: str, value: float, **attrs: Any) -> None:
    """Record the current value of ``name`` (rolled up as last-wins)."""
    state = _get_state()
    if state is None:
        return
    _emit(state, {"type": "gauge", "name": name, "value": value, "attrs": attrs})


def hist(name: str, value: float, **attrs: Any) -> None:
    """Record one histogram observation (rolled up as count/mean/min/max)."""
    state = _get_state()
    if state is None:
        return
    _emit(state, {"type": "hist", "name": name, "value": value, "attrs": attrs})


# --------------------------------------------------------------------- spans


class Span:
    """An open span; ``set()`` attaches attributes before it closes."""

    __slots__ = ("name", "span_id", "parent_id", "attrs", "_t0", "_start_ts")

    def __init__(self, name: str, span_id: str, parent_id: str | None, attrs: dict):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._t0 = time.perf_counter()
        self._start_ts = time.time()

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._t0


class _NullSpan:
    """Shared do-nothing span/context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    @property
    def elapsed(self) -> float:
        return 0.0


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager recording one span into the ledger on exit."""

    __slots__ = ("_state", "_span")

    def __init__(self, state: _State, name: str, attrs: dict):
        self._state = state
        parent = state.stack[-1].span_id if state.stack else None
        state.next_id += 1
        self._span = Span(name, f"{state.pid:x}.{state.next_id:x}", parent, attrs)

    def __enter__(self) -> Span:
        self._state.stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        span_obj = self._span
        state = self._state
        if state.stack and state.stack[-1] is span_obj:
            state.stack.pop()
        record = {
            "type": "span",
            "name": span_obj.name,
            "id": span_obj.span_id,
            "parent": span_obj.parent_id,
            "start": span_obj._start_ts,
            "seconds": span_obj.elapsed,
            "attrs": span_obj.attrs,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        _emit(state, record)


def span(name: str, **attrs: Any):
    """Open a named span: ``with span("retrain", epochs=3) as sp: ...``.

    Nesting is tracked per process; the yielded :class:`Span` accepts
    late attributes via ``sp.set(...)``.  Returns :data:`NULL_SPAN` when
    observation is disabled, so the call costs one lookup and no
    allocation.
    """
    state = _get_state()
    if state is None:
        return NULL_SPAN
    return _SpanContext(state, name, attrs)


def iter_open_spans() -> Iterator[str]:
    """Names of currently open spans, outermost first (debug helper)."""
    state = _get_state()
    if state is not None:
        for item in state.stack:
            yield item.name


def _to_jsonable(value: Any) -> Any:
    """Best-effort conversion of numpy scalars/arrays for attribute values."""
    if hasattr(value, "item") and getattr(value, "ndim", None) == 0:
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


def json_default(value: Any) -> Any:
    """``json.dumps`` fallback used by the ledger writer."""
    converted = _to_jsonable(value)
    if converted is value and not isinstance(value, (str, int, float, bool)):
        return repr(value)
    return converted


def dumps(record: dict) -> str:
    return json.dumps(record, default=json_default, separators=(",", ":"))
