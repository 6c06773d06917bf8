"""The inference engine: compiled no-grad forwards behind one seam.

:func:`engine_for` is the seam every eval-heavy consumer goes through.
It returns a cached :class:`InferenceEngine` for a model; the engine
compiles the model's eval forward into a flat numpy plan per input shape
(BN folded, masked weights densified), and falls back to the plain
``Module`` forward whenever the model cannot be traced, a compiled plan
fails its self-check, or ``REPRO_INFER=0`` opts out.

Plans are shared across model objects.  A process-wide LRU of *plan
templates* holds, per (architecture, input shape, dtype, ``fold_bn``), the
validated full-shape trace; a new object of the same architecture traces
only a two-row identity sample, binds the template's graph to its own
state (leaves resolve by name) and checks that one run against its own
module forward.  Tracing and the row-independence checks are paid once per
architecture and shape per process, not once per object.

Correctness machinery:

- a full compile validates the plan against the module's own forward
  (trace-sample parity, plus a row-independence check that licenses batch
  padding) and only then becomes a template;
- a shared bind is checked against the binding object's own module output
  on the identity rows; on a parity failure it falls back to a full
  compile for that object (``infer.share_rejected``), so no object is
  served a number its own forward was not checked against;
- constants are refreshed whenever the model's *state signature* — an
  adler32 over every parameter and buffer — changes, so in-place SGD
  updates and new masks invalidate the cache without version counters;
- the fallback path restores ``model.train(...)`` in a ``finally``, so
  an exception mid-eval can never leave a caller's model stuck in eval.
"""

from __future__ import annotations

import hashlib
import os
import time
import weakref
import zlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import observe
from repro.autograd.tensor import Tensor, no_grad
from repro.infer.plan import CompiledPlan, CompileError
from repro.infer.trace import Graph, TraceError, trace
from repro.nn.module import Module

ENV_VAR = "REPRO_INFER"

_PARITY_ATOL = 1e-5
# BN folding perturbs weights *before* the conv reduction, so folded plans
# match the module to ~1e-6 relative rather than bit-for-bit — and the
# resulting absolute error rides on the largest co-activation, not on each
# element.  The self-check gate is therefore scale-aware:
# max|got - want| <= atol + rtol * max|want|.
_PARITY_RTOL = 1e-5
_AUTOTUNE_CANDIDATES = (32, 64, 128, 256, 512)
# Plan templates kept per process (architectures x input shapes), and the
# leading probe rows a model object traces to find and check its template.
_TEMPLATE_CAPACITY = 16
_IDENTITY_ROWS = 2


def _assert_parity(got: np.ndarray, want: np.ndarray, what: str) -> None:
    diff = float(np.abs(got - want).max())
    bound = _PARITY_ATOL + _PARITY_RTOL * float(np.abs(want).max())
    if not diff <= bound:  # NaNs compare false and fall through here
        raise CompileError(f"{what}: max abs diff {diff:.3e} exceeds {bound:.3e}")


def enabled() -> bool:
    """Compiled plans are on unless ``REPRO_INFER=0`` (checked per call)."""
    return os.environ.get(ENV_VAR, "1").lower() not in ("0", "false", "off")


def _state_signature(model: Module) -> tuple:
    """Cheap content hash of every parameter and buffer.

    Keyed on array *contents* (not object identity or version counters)
    because SGD updates parameters in place and ``set_weight_mask``
    rewrites buffers the plan has already densified.
    """
    parts = []
    for name, p in model.named_parameters():
        parts.append((name, zlib.adler32(np.ascontiguousarray(p.data).tobytes())))
    for name, b in model.named_buffers():
        parts.append((name, zlib.adler32(np.ascontiguousarray(b).tobytes())))
    return tuple(parts)


@dataclass
class _Template:
    """A validated eval plan graph, shareable by any object it identifies.

    An entry exists only for a graph whose full compile passed the
    self-check and both row-independence checks.  ``identity`` is the
    trace of the same model on the probe's leading rows; an object whose
    own identity trace equals it exactly binds ``graph``.
    """

    identity: Graph
    graph: Graph


# (probe shape, dtype, fold_bn, identity digest) -> template; LRU order.
_TEMPLATES: "OrderedDict[tuple, _Template]" = OrderedDict()


def _digest(graph: Graph) -> str:
    """Hash of a traced graph: ops, wiring, params, shapes, constant bytes."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((graph.input, graph.output)).encode())
    for node, shape in zip(graph.nodes, graph.shapes):
        h.update(repr((node.op, node.inputs, shape)).encode())
        for name in sorted(node.params):
            value = node.params[name]
            if isinstance(value, np.ndarray):
                h.update(repr((name, value.dtype.str, value.shape)).encode())
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(repr((name, value)).encode())
    return h.hexdigest()


def _same(a, b) -> bool:
    """Exact equality of traced params (arrays by dtype, shape and bytes)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _same_graph(a: Graph, b: Graph) -> bool:
    """Exact structural equality, so a digest collision cannot share a plan."""
    return (
        a.input == b.input
        and a.output == b.output
        and _same(a.shapes, b.shapes)
        and len(a.nodes) == len(b.nodes)
        and all(
            x.op == y.op and x.inputs == y.inputs and _same(x.params, y.params)
            for x, y in zip(a.nodes, b.nodes)
        )
    )


def _check_row_independence(
    plan: CompiledPlan, probe: np.ndarray, got: np.ndarray
) -> None:
    """Row independence licenses tail padding *and* batch coalescing.

    Perturbing every trailing row must leave the leading row's output
    bitwise unchanged, and vice versa (any batch-mixing op would couple
    the rows).  The second direction matters to the serving layer, which
    places a request's rows in the middle of a coalesced batch.
    """
    if probe.shape[0] < 2:
        return
    perturbed = probe.copy()
    perturbed[1:] = probe[1:] * -3.0 + 1.0
    if not np.array_equal(plan.run(perturbed)[0], got[0]):
        raise CompileError("forward mixes batch rows; padding is unsafe")
    perturbed = probe.copy()
    perturbed[:-1] = probe[:-1] * -3.0 + 1.0
    if not np.array_equal(plan.run(perturbed)[-1], got[-1]):
        raise CompileError("forward mixes batch rows; coalescing is unsafe")


def _coerce_batch(images: np.ndarray) -> np.ndarray:
    arr = np.asarray(images)
    if arr.size == 0:
        raise ValueError("inference requires a non-empty batch of images")
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float32)
    return arr


def _pad_to(n: int, batch_size: int) -> int:
    """Smallest power-of-two chunk (capped at ``batch_size``) holding n rows.

    Padding tail chunks up to a power of two bounds the number of distinct
    compiled shapes per model at ~log2(batch_size) even when callers (e.g.
    BackSelect's shrinking candidate sets) sweep through every batch size.
    """
    size = 1
    while size < n:
        size *= 2
    return min(size, batch_size)


class InferenceEngine:
    """Batched eval-mode ``logits``/``predict``/``predict_proba`` for a model.

    Parameters
    ----------
    model:
        The module to serve.  The engine never mutates it beyond the
        eval/train toggling that any evaluation does (and that is always
        restored, exception or not).
    batch_size:
        Upper bound on rows per compiled forward.  :meth:`autotune_batch_size`
        can replace it with a measured optimum.
    fold_bn:
        Fold eval-mode BatchNorm into the preceding conv/linear where the
        normalized value has no other consumer.
    pad:
        Chunk-padding policy.  ``"pow2"`` (default) pads tail chunks to the
        next power of two, bounding compiled shapes at ~log2(batch_size)
        per sweep.  ``"fixed"`` pads *every* chunk to ``batch_size``, so
        one plan serves all batch occupancies — the serving layer uses it
        because identical plans make a coalesced batch's per-row outputs
        bitwise equal to the same rows served one request at a time
        (different plan shapes route through different BLAS blockings and
        round differently).
    """

    def __init__(
        self,
        model: Module,
        batch_size: int = 256,
        fold_bn: bool = True,
        pad: str = "pow2",
    ):
        if pad not in ("pow2", "fixed"):
            raise ValueError(f"pad must be 'pow2' or 'fixed', got {pad!r}")
        self.model = model
        self.batch_size = int(batch_size)
        self.fold_bn = fold_bn
        self.pad = pad
        # (row_shape, dtype) -> CompiledPlan | None (None: fall back forever)
        self._plans: dict[tuple, CompiledPlan | None] = {}
        self._signature: tuple | None = None
        # (images shape, candidates) -> best batch size (autotune sweeps are
        # expensive; repeated calls must not re-run them).
        self._autotune_cache: dict[tuple, int] = {}
        # Serving-layer seam: called as hook(engine, plan_key, plan) every
        # time a compiled plan is about to serve a chunk (including right
        # after compilation), so an LRU can track recency and budget.
        self.plan_used_hook = None

    # -------------------------------------------------------------- compile

    def _compile(
        self, probe: np.ndarray
    ) -> tuple[CompiledPlan | None, np.ndarray | None]:
        """A validated plan for ``probe``'s exact shape, shared or compiled.

        Returns ``(plan, out)``, where ``out`` is the plan's validated
        output on ``probe`` (the caller serves it as that chunk's logits),
        or ``(None, None)`` when the shape is pinned to the module forward.

        Plans are shape-specific (traced ``reshape``/``getitem`` bake in
        the batch dimension), which is why :meth:`logits` pads chunks to a
        small set of power-of-two sizes before coming here.
        """
        key = (probe.shape, probe.dtype.str)
        rows = min(_IDENTITY_ROWS, probe.shape[0])
        try:
            identity = trace(self.model, probe[:rows])
        except TraceError as exc:
            return self._fall_back(key, exc)
        template_key = key + (self.fold_bn, _digest(identity))
        template = _TEMPLATES.get(template_key)
        if template is not None and _same_graph(template.identity, identity):
            _TEMPLATES.move_to_end(template_key)
            try:
                plan = CompiledPlan(template.graph, fold_bn=self.fold_bn)
                plan.refresh(self.model)
                got = plan.run(probe)
                # The template's row-independence verdict licenses checking
                # only the identity rows against this object's own forward.
                _assert_parity(
                    got[:rows], identity.sample_output, "shared-plan check"
                )
            except (CompileError, AssertionError) as exc:
                observe.event(
                    "infer.share_rejected", shape=list(probe.shape), reason=repr(exc)
                )
            else:
                observe.incr("infer.plan_shared")
                return self._adopt(key, plan, got)
        with observe.span(
            "infer.compile", shape=list(probe.shape), fold_bn=self.fold_bn
        ):
            try:
                graph = trace(self.model, probe)
                plan = CompiledPlan(graph, fold_bn=self.fold_bn)
                plan.refresh(self.model)
                # Kernel exactness + dataflow: re-running the probe through
                # the compiled kernels must reproduce the module's own
                # output recorded during tracing.
                got = plan.run(probe)
                _assert_parity(got, graph.sample_output, "compile self-check")
                _check_row_independence(plan, probe, got)
            except (TraceError, CompileError, AssertionError) as exc:
                return self._fall_back(key, exc)
        _TEMPLATES[template_key] = _Template(identity, graph)
        _TEMPLATES.move_to_end(template_key)
        while len(_TEMPLATES) > _TEMPLATE_CAPACITY:
            _TEMPLATES.popitem(last=False)
        return self._adopt(key, plan, got)

    def _adopt(self, key: tuple, plan: CompiledPlan, got: np.ndarray) -> tuple:
        plan.signature = self._signature
        self._plans[key] = plan
        return plan, got

    def _fall_back(self, key: tuple, exc: Exception) -> tuple[None, None]:
        observe.event("infer.fallback", shape=list(key[0]), reason=repr(exc))
        self._plans[key] = None
        return None, None

    def _plan_for(
        self, chunk: np.ndarray
    ) -> tuple[CompiledPlan | None, np.ndarray | None]:
        """``(plan, out)`` for ``chunk``; ``out`` is set only right after a
        compile or bind, whose validation run already produced it."""
        key = (chunk.shape, chunk.dtype.str)
        out = None
        if key not in self._plans:
            plan, out = self._compile(chunk)
        else:
            plan = self._plans[key]
            if plan is not None and plan.signature != self._signature:
                plan.refresh(self.model)
                plan.signature = self._signature
                observe.incr("infer.refreshes")
        hook = self.plan_used_hook
        if plan is not None and hook is not None:
            hook(self, key, plan)
        return plan, out

    def _chunk_rows(self, n: int, batch_size: int) -> int:
        """Rows the padded chunk will occupy under this engine's pad policy."""
        if self.pad == "fixed":
            return batch_size
        return _pad_to(n, batch_size)

    # ------------------------------------------------------------- fallback

    def _module_logits(self, images: np.ndarray) -> np.ndarray:
        """Plain ``Module`` forward, train-state restored in a ``finally``."""
        was_training = self.model.training
        self.model.eval()
        try:
            with no_grad():
                return self.model(Tensor(images)).data
        finally:
            self.model.train(was_training)

    # ------------------------------------------------------------------ API

    def logits(self, images: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Eval-mode logits for ``images``, batched and (if possible) compiled."""
        arr = _coerce_batch(images)
        bs = int(batch_size) if batch_size is not None else self.batch_size
        # Module-like duck types (test doubles with just __call__/eval/train)
        # are served through the fallback path — tracing and the state
        # signature need the real parameter/buffer API.
        use_plans = enabled() and isinstance(self.model, Module)
        if use_plans:
            self._signature = _state_signature(self.model)
        outputs = []
        start = time.perf_counter()
        for lo in range(0, arr.shape[0], bs):
            chunk = arr[lo : lo + bs]
            plan = None
            if use_plans:
                # Pad every chunk up to a power of two (capped at the batch
                # size) so a sweep of batch sizes — BackSelect's shrinking
                # candidate sets — compiles O(log bs) plans, not one each.
                # (pad="fixed" pads straight to the batch size instead.)
                rows = self._chunk_rows(chunk.shape[0], bs)
                if rows != chunk.shape[0]:
                    padded = np.zeros((rows,) + chunk.shape[1:], dtype=chunk.dtype)
                    padded[: chunk.shape[0]] = chunk
                else:
                    padded = chunk
                plan, out = self._plan_for(padded)
            if plan is not None:
                if out is None:
                    out = plan.run(padded)
                outputs.append(out[: chunk.shape[0]])
                observe.incr("infer.batches")
            else:
                outputs.append(self._module_logits(chunk))
                observe.incr("infer.fallback_batches")
        out = outputs[0] if len(outputs) == 1 else np.concatenate(outputs, axis=0)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            observe.hist("infer.images_per_s", arr.shape[0] / elapsed)
        return out

    def predict(self, images: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Argmax class predictions over axis 1."""
        return np.argmax(self.logits(images, batch_size=batch_size), axis=1)

    def predict_proba(
        self, images: np.ndarray, batch_size: int | None = None
    ) -> np.ndarray:
        """Softmax probabilities over axis 1 (stable shifted exp)."""
        logits = self.logits(images, batch_size=batch_size)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def autotune_batch_size(
        self,
        images: np.ndarray,
        candidates: tuple[int, ...] = _AUTOTUNE_CANDIDATES,
        repeats: int = 2,
    ) -> int:
        """Measure throughput per candidate batch size and adopt the best.

        The sweep is memoized per ``(images.shape, candidates)``: the first
        call times every candidate, later calls re-adopt the cached winner
        without re-running the sweep (a serving layer autotunes on every
        registration, often with the same probe shape).
        """
        arr = _coerce_batch(images)
        memo_key = (arr.shape, tuple(candidates))
        cached = self._autotune_cache.get(memo_key)
        if cached is not None:
            self.batch_size = cached
            return cached
        best, best_rate = self.batch_size, 0.0
        for candidate in candidates:
            if candidate > arr.shape[0]:
                continue
            rate = 0.0
            for _ in range(repeats):
                start = time.perf_counter()
                self.logits(arr, batch_size=candidate)
                rate = max(rate, arr.shape[0] / (time.perf_counter() - start))
            if rate > best_rate:
                best, best_rate = candidate, rate
        observe.event("infer.autotune", batch_size=best, images_per_s=best_rate)
        self._autotune_cache[memo_key] = best
        self.batch_size = best
        return best

    def compiled_for(self, images: np.ndarray) -> bool:
        """True if a validated plan exists for this batch (after padding)."""
        arr = _coerce_batch(images)
        rows = self._chunk_rows(arr.shape[0], self.batch_size)
        return self._plans.get(((rows,) + arr.shape[1:], arr.dtype.str)) is not None

    # ----------------------------------------------------- plan bookkeeping

    def plan_stats(self) -> dict[tuple, int]:
        """Resident compiled plans: ``plan_key -> constant bytes``.

        Fallback markers (shapes that failed to compile and are pinned to
        the module forward) are excluded — there is nothing to evict.
        """
        return {
            key: plan.nbytes
            for key, plan in self._plans.items()
            if plan is not None
        }

    def evict_plan(self, key: tuple) -> bool:
        """Drop the compiled plan under ``key`` (returns whether one existed).

        The next batch of that shape binds the plan again (through the
        process's plan templates when one still matches); fallback markers
        are left in place so a known-untraceable shape never re-attempts
        compilation because of memory pressure.
        """
        if self._plans.get(key) is None:
            return False
        del self._plans[key]
        observe.incr("infer.plan_evictions")
        return True


_ENGINES: "weakref.WeakKeyDictionary[Module, InferenceEngine]" = (
    weakref.WeakKeyDictionary()
)


def engine_for(model: Module, batch_size: int = 256) -> InferenceEngine:
    """The shared engine for ``model`` (pass-through for engines).

    Consumers accept either a ``Module`` or an ``InferenceEngine``; routing
    both through this seam lets callers pre-warm and share one engine
    across an entire study loop.
    """
    if isinstance(model, InferenceEngine):
        return model
    engine = _ENGINES.get(model)
    if engine is None:
        engine = InferenceEngine(model, batch_size=batch_size)
        _ENGINES[model] = engine
    return engine


def adopt_engine(engine: InferenceEngine) -> InferenceEngine:
    """Install ``engine`` as the shared :func:`engine_for` engine of its model.

    The serving registry builds engines with non-default settings
    (``pad="fixed"``, a tuned batch size) and adopts them so every other
    consumer of the same model — including differential parity checks —
    routes through the identical plans.
    """
    _ENGINES[engine.model] = engine
    return engine
