"""In-memory spans around calls into the program, installed from outside.

The benchmark times each layer by wrapping that layer's public callables
at run time; nothing under ``src/`` is edited.  A span records its layer,
duration and the time its child spans covered, so a layer's *self time*
is its duration minus its children's.  Spans stay in memory and are
reduced to metrics when the measured call returns.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable


class Span:
    __slots__ = ("layer", "parent", "start", "duration", "child", "fields")

    def __init__(self, layer: str, parent: "Span | None", fields: dict):
        self.layer = layer
        self.parent = parent
        self.fields = fields
        self.start = time.perf_counter()
        self.duration = 0.0
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def within(self, layer_prefix: str) -> bool:
        """True if an ancestor span belongs to a layer starting with the prefix."""
        node = self.parent
        while node is not None:
            if node.layer.startswith(layer_prefix):
                return True
            node = node.parent
        return False


class Tracer:
    """Records spans and owns the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    @contextmanager
    def span(self, layer: str, **fields):
        parent = self._open[-1] if self._open else None
        record = Span(layer, parent, fields)
        self._open.append(record)
        try:
            yield record
        finally:
            record.duration = time.perf_counter() - record.start
            self._open.pop()
            if parent is not None:
                parent.child += record.duration
            self.spans.append(record)

    def of(self, layer: str) -> list[Span]:
        return [s for s in self.spans if s.layer == layer]

    # ------------------------------------------------------------ patching

    def patch_attr(self, owner, name: str, make: Callable[[Callable], Callable]):
        """Replace ``owner.name`` (function or method) with ``make(original)``."""
        raw = inspect.getattr_static(owner, name)
        own = name in vars(owner)
        if isinstance(raw, classmethod):
            new = classmethod(functools.wraps(raw.__func__)(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            new = staticmethod(functools.wraps(raw.__func__)(make(raw.__func__)))
        else:
            new = functools.wraps(raw)(make(raw))
        setattr(owner, name, new)
        self._patches.append((owner, name, raw, own))

    def patch_function(self, fn: Callable, make: Callable[[Callable], Callable]):
        """Rebind ``fn`` in every loaded ``repro`` module that imported it.

        ``from x import f`` copies the binding, so wrapping the defining
        module alone would miss every caller that imported the name.
        """
        wrapped = functools.wraps(fn)(make(fn))
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, fn, True))

    def uninstall(self) -> None:
        for owner, name, raw, own in reversed(self._patches):
            if own:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)
        self._patches.clear()
