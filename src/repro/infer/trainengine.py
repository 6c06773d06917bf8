"""The training engine: compiled gradient plans behind one seam.

:func:`train_engine_for` is the seam ``Trainer.train`` goes through.  The
engine traces one train-mode forward + loss per (input shape, label shape),
derives a static backward (see :mod:`repro.infer.grad`), and then serves
every batch of that shape from the flat plan: no per-batch tape, closures,
or Python autograd traversal.  The tape path remains as fallback — for
``REPRO_TRAINC=0``, untraceable models (active dropout, tensor indexing),
or a plan that fails its compile-time validation.

Correctness machinery:

- every plan is validated at compile time against a full tape step on the
  probe batch — loss, logits, every parameter gradient, and the BatchNorm
  running-stat updates must agree (bitwise in exact mode, within a
  scale-aware tolerance in fast mode); the reference pass snapshots and
  restores gradients and buffers, so validation is side-effect free;
- a fast plan the float32 tape refuses is judged once more, by the same
  checks and bounds, against a tape step on a throwaway float64 copy of
  the model, and accepted only if it passes every check there (a ReLU
  gate whose float32 pre-activation rounds across zero puts the float32
  tape, not the plan, off the gradient); exact mode never takes this
  path, and passing plans never pay for it;
- a parity refusal lasts one training phase: :func:`train_engine_for`
  re-judges the shape on the next phase's probe batch, while an
  untraceable model stays on the tape for good;
- parameters and buffers are bound *live* on every run (SGD mutates them
  each batch), so there is no constant refresh or content signature; the
  only cached-plan staleness hazard is mask *topology* — pruning a
  previously unpruned layer adds a ``weight * mask`` node the old trace
  lacks — so plans are dropped whenever any layer's mask-active flag flips;
- BatchNorm running statistics are updated by the engine after each plan
  run, replaying ``functional.batch_norm``'s in-place arithmetic exactly;
- the optimizer consumes plan gradients through :meth:`SGD.apply`, which
  shares the momentum state and arithmetic of ``step`` without mutating
  the (possibly shared) gradient buffers.
"""

from __future__ import annotations

import copy
import os
import weakref

import numpy as np

from repro import observe
from repro.autograd.tensor import Tensor
from repro.infer.grad import GradPlan
from repro.infer.plan import CompileError
from repro.infer.trace import TraceError, trace_training
from repro.nn.module import Module

ENV_VAR_TRAIN = "REPRO_TRAINC"

# Fast plans reorder convolution accumulation (per-offset GEMMs vs one
# im2col GEMM), so gradients match the tape to roughly sqrt(#terms)·eps
# relative.  The gate is scale-aware on the tensor's largest entry, with
# the scale floored at 1 so near-zero tensors get the absolute budget.
_GRAD_ATOL = 1e-5
_GRAD_RTOL = 1e-4
# On deep nets (resnet56/110) the reordered forward drifts borderline
# pre-activations across zero, flipping individual ReLU gates in the
# backward mask — a discrete per-entry difference no elementwise bound
# absorbs.  Gradients that fail the elementwise gate are still accepted
# within a relative-l2 budget: gate flips perturb the norm by a few
# percent (growing with batch size — more borderline activations), while
# genuine wiring bugs (wrong scale, missing term) shift it by O(1).
# Wiring itself is proven separately — the exact-mode oracle reproduces
# the tape bitwise on every registry architecture.
_GRAD_RNORM = 1e-1


def train_enabled() -> bool:
    """Compiled training is on unless ``REPRO_TRAINC=0`` (checked per call)."""
    return os.environ.get(ENV_VAR_TRAIN, "1").lower() not in ("0", "false", "off")


def _abs_gap(got: np.ndarray, want: np.ndarray) -> tuple[float, float]:
    """The largest elementwise difference and the scale-aware bound on it."""
    diff = float(np.abs(got - want).max()) if got.size else 0.0
    bound = _GRAD_ATOL + _GRAD_RTOL * max(
        1.0, float(np.abs(want).max()) if want.size else 0.0
    )
    return diff, bound


def _close(got, want, exact: bool) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    if exact:
        return bool(np.array_equal(got, want))
    diff, bound = _abs_gap(got, want)
    return diff <= bound


def _grad_close(got, want, exact: bool) -> bool:
    if _close(got, want, exact):
        return True
    if exact:
        return False
    got, want = np.asarray(got), np.asarray(want)
    diff = float(np.linalg.norm((got - want).ravel()))
    return diff <= _GRAD_RNORM * (float(np.linalg.norm(want.ravel())) + _GRAD_ATOL)


def _grad_gap(got, want, exact: bool) -> str:
    """The numbers the gradient gates judged, for a rejection message."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return f"shape {got.shape} vs {want.shape}"
    diff, bound = _abs_gap(got, want)
    if exact:
        return f"max abs diff {diff:.3g}, exact mode allows none"
    rel = _gaps(got, want)["rel_l2_diff"]
    return (
        f"max abs diff {diff:.3g} > bound {bound:.3g}, "
        f"relative l2 diff {rel:.3g} > {_GRAD_RNORM:g}"
    )


def _first_failure(comparisons: list[tuple], exact: bool):
    """``(index, reason)`` of the first failed ``(kind, name, got, want)``
    comparison, or None when all pass."""
    for i, (kind, name, got, want) in enumerate(comparisons):
        if kind != "gradient":
            if not _close(got, want, exact):
                return i, f"{kind} parity failed for {name!r}"
        elif (got is None) != (want is None):
            return i, f"gradient presence mismatch for {name!r}"
        elif want is not None and not _grad_close(got, want, exact):
            return i, (
                f"gradient parity failed for {name!r}: "
                + _grad_gap(got, want, exact)
            )
    return None


def _gaps(got, want) -> dict:
    """Max abs and relative-l2 difference of ``got`` from ``want``."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return {
        "max_abs_diff": float(np.abs(got - want).max()) if got.size else 0.0,
        "rel_l2_diff": float(np.linalg.norm((got - want).ravel()))
        / (float(np.linalg.norm(want.ravel())) + _GRAD_ATOL),
    }


def _float64_twin(model: Module) -> Module:
    """A throwaway float64 copy of ``model``: parameters, buffers, masks."""
    twin = copy.deepcopy(model)
    for p in twin.parameters():
        p.data, p.grad = p.data.astype(np.float64), None
    for module in twin.modules():
        for name, buf in list(module._buffers.items()):
            if np.issubdtype(buf.dtype, np.floating):
                module.set_buffer(name, buf.astype(np.float64))
    return twin


def _update_running_stats(buffers: dict, bn_updates: list, stats) -> None:
    """Replay ``functional.batch_norm``'s in-place running-stat update onto
    ``buffers`` (name -> array) from a plan's batch ``(mean, var)`` pairs."""
    for upd, (mean, var) in zip(bn_updates, stats):
        momentum, m = upd["momentum"], upd["m"]
        rm = buffers[upd["running_mean"]]
        rm *= 1.0 - momentum
        rm += momentum * mean
        rv = buffers[upd["running_var"]]
        rv *= 1.0 - momentum
        rv += momentum * var * (m / max(m - 1, 1))


def _mask_signature(model: Module) -> tuple:
    """Which prunable layers currently have an active mask.

    Mask *values* need no invalidation (the mask buffer is a live-bound
    leaf), but flipping a layer between masked and unmasked changes the
    traced graph itself.
    """
    from repro.nn.prunable import PrunableWeightMixin

    return tuple(
        bool(m._mask_active)
        for m in model.modules()
        if isinstance(m, PrunableWeightMixin)
    )


class TrainEngine:
    """Compiled training steps for one (model, loss, optimizer) triple.

    :meth:`step` performs everything the tape-path loop body does —
    forward, loss, backward, BatchNorm running-stat updates, optimizer
    update — and returns ``(loss, logits)`` for the caller's bookkeeping.
    The optimizer's ``lr`` may be retuned by the caller between steps, as
    ``Trainer.train``'s schedule does.
    """

    def __init__(self, model, loss_fn, optimizer, exact: bool = False):
        self.model = model
        self.loss_fn = loss_fn
        self.optimizer = optimizer
        self.exact = exact
        # (x shape, x dtype, y shape) -> GradPlan | None (None: tape)
        self._plans: dict[tuple, GradPlan | None] = {}
        # The None entries a parity check refused; a new phase re-judges them.
        self._parity_rejected: set[tuple] = set()
        self._masks: tuple | None = None

    # -------------------------------------------------------------- compile

    def _tape_reference(self, x: np.ndarray, y: np.ndarray, model=None):
        """One tape step's outputs without its side effects.

        Returns ``(loss, logits, grads, stat_buffers)``; parameter ``grad``
        slots and every model buffer are restored before returning, and the
        optimizer is never stepped.  ``model`` defaults to the engine's.
        """
        model = self.model if model is None else model
        params = list(model.named_parameters())
        saved = [p.grad for _, p in params]
        snapshot = {name: buf.copy() for name, buf in model.named_buffers()}
        was_training = model.training
        model.train()
        try:
            for _, p in params:
                p.grad = None
            logits = model(Tensor(x))
            loss = self.loss_fn(logits, y)
            loss.backward()
            grads = {
                name: None if p.grad is None else p.grad.copy()
                for name, p in params
            }
            stat_buffers = {
                name: buf.copy() for name, buf in model.named_buffers()
            }
            return float(loss.data), logits.data.copy(), grads, stat_buffers
        finally:
            model.train(was_training)
            for (_, p), grad in zip(params, saved):
                p.grad = grad
            for name, buf in model.named_buffers():
                buf[...] = snapshot[name]

    def _comparisons(self, plan: GradPlan, got, want) -> list[tuple]:
        """Every ``(kind, name, plan value, tape value)`` validation judges.

        ``got`` is a plan run and ``want`` a tape reference on the same
        batch.  The plan's running-stat update is simulated on copies of
        the live buffers, so it must land where the tape's forward wrote.
        """
        loss, logits, grads, stats = got
        want_loss, want_logits, want_grads, want_buffers = want
        out = [
            ("loss", "loss", loss, want_loss),
            ("logits", "logits", logits, want_logits),
        ]
        out += [
            ("gradient", name, grads.get(name), w)
            for name, w in want_grads.items()
        ]
        running = [
            name
            for upd in plan.bn_updates
            for name in (upd["running_mean"], upd["running_var"])
        ]
        live = dict(self.model.named_buffers())
        buffers = {name: live[name].copy() for name in running}
        _update_running_stats(buffers, plan.bn_updates, stats)
        out += [
            ("running-stat", name, buffers[name], want_buffers[name])
            for name in running
        ]
        return out

    def _validate(self, plan: GradPlan, x: np.ndarray, y: np.ndarray) -> None:
        """Raise :class:`CompileError` unless ``plan`` matches a tape step.

        A fast plan the float32 tape refuses is judged once more, by the
        same checks and bounds, against a tape step in float64: a ReLU gate
        whose float32 pre-activation rounds to the other side of zero puts
        the float32 tape, not the plan, off the gradient.  The plan is
        accepted only if every check passes against float64.
        """
        got = plan.run(x, y)
        narrow = self._comparisons(plan, got, self._tape_reference(x, y))
        failure = _first_failure(narrow, plan.exact)
        if failure is None:
            return
        i, reason = failure
        if plan.exact:
            raise CompileError(reason)
        twin = _float64_twin(self.model)
        wide = self._comparisons(
            plan, got, self._tape_reference(x.astype(np.float64), y, twin)
        )
        wide_failure = _first_failure(wide, exact=False)
        if wide_failure is not None:
            raise CompileError(
                f"{reason}; against a float64 tape step, {wide_failure[1]}"
            )
        _, name, value, want32 = narrow[i]
        observe.event(
            "trainc.tiebreak",
            shape=list(x.shape),
            param=name,
            float32=_gaps(value, want32),
            float64=_gaps(value, wide[i][3]),
        )

    def _compile(self, x: np.ndarray, y: np.ndarray) -> GradPlan | None:
        key = (x.shape, x.dtype.str, np.asarray(y).shape)
        plan = None
        with observe.span(
            "trainc.compile", shape=list(x.shape), exact=self.exact
        ):
            try:
                graph = trace_training(self.model, self.loss_fn, x, y)
                plan = GradPlan(graph, self.model, exact=self.exact)
                self._validate(plan, x, y)
            except (TraceError, CompileError) as exc:
                observe.event(
                    "trainc.fallback", shape=list(x.shape), reason=repr(exc)
                )
                self._plans[key] = None
                if plan is not None:  # built, then refused on parity
                    self._parity_rejected.add(key)
                return None
        self._plans[key] = plan
        return plan

    # ------------------------------------------------------------- fallback

    def _tape_step(self, x: np.ndarray, y: np.ndarray):
        """The Module/tape loop body, verbatim."""
        logits = self.model(Tensor(x))
        loss = self.loss_fn(logits, y)
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()
        return float(loss.data), logits.data

    # ------------------------------------------------------------------ API

    def step(self, x: np.ndarray, y: np.ndarray):
        """One full training step; returns ``(loss, logits)``."""
        if not (train_enabled() and isinstance(self.model, Module)):
            observe.incr("trainc.fallback_batches")
            return self._tape_step(x, y)
        masks = _mask_signature(self.model)
        if masks != self._masks:
            if self._masks is not None and self._plans:
                self._plans.clear()
                self._parity_rejected.clear()
                observe.incr("trainc.mask_invalidations")
            self._masks = masks
        x = np.asarray(x)
        key = (x.shape, x.dtype.str, np.asarray(y).shape)
        if key not in self._plans:
            self._compile(x, y)
        plan = self._plans[key]
        if plan is None:
            observe.incr("trainc.fallback_batches")
            return self._tape_step(x, y)
        loss, logits, grads, stats = plan.run(x, y)
        if plan.bn_updates:
            _update_running_stats(
                dict(self.model.named_buffers()), plan.bn_updates, stats
            )
        self.optimizer.apply(self._aligned(grads))
        observe.incr("trainc.batches")
        return float(loss), logits

    def new_phase(self) -> None:
        """Forget parity rejections, so each training phase judges its plans
        on its own probe batch; untraceable shapes stay on the tape."""
        for key in self._parity_rejected:
            del self._plans[key]
        self._parity_rejected.clear()

    def compiled_for(self, x: np.ndarray, y: np.ndarray) -> bool:
        """True if a validated plan exists for this batch's shapes."""
        x = np.asarray(x)
        return self._plans.get((x.shape, x.dtype.str, np.asarray(y).shape)) is not None

    # ------------------------------------------------------------ internals

    def _aligned(self, grads: dict) -> list:
        """Plan gradients in ``optimizer.params`` order (None where absent)."""
        name_of = {id(p): name for name, p in self.model.named_parameters()}
        return [
            grads.get(name_of.get(id(p))) for p in self.optimizer.params
        ]


_TRAIN_ENGINES: "weakref.WeakKeyDictionary[Module, TrainEngine]" = (
    weakref.WeakKeyDictionary()
)


def train_engine_for(model, loss_fn, optimizer, exact: bool = False) -> TrainEngine:
    """The shared training engine for ``model``.

    Compiled plans survive across training phases (the prune → retrain
    loop re-enters ``Trainer.train`` with a fresh optimizer each time), so
    the loss/optimizer handles are refreshed on every call while the plan
    cache is kept, less the shapes a parity check refused in an earlier
    phase; an ``exact`` flag change rebuilds the engine.
    """
    if isinstance(model, TrainEngine):
        return model
    engine = _TRAIN_ENGINES.get(model) if isinstance(model, Module) else None
    if engine is None or engine.exact != exact:
        engine = TrainEngine(model, loss_fn, optimizer, exact=exact)
        if isinstance(model, Module):
            _TRAIN_ENGINES[model] = engine
        return engine
    engine.loss_fn = loss_fn
    engine.optimizer = optimizer
    engine.new_phase()
    return engine
