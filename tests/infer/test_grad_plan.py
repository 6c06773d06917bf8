"""Compiled gradient plans: tape parity, fused-kernel gradients, registry smoke."""

import re

import numpy as np
import pytest

from repro.infer import GradPlan, TrainEngine, trace_training
from repro.infer.grad import _k_conv_bn_relu, _k_conv_bn_relu_bwd
from repro.models.registry import available_models, build_model
from repro.nn.losses import CrossEntropyLoss
from repro.nn.prunable import PrunableWeightMixin
from repro.optim import SGD
from repro.verify import oracle_grad_plan_parity

from tests.conftest import make_tiny_cnn


@pytest.fixture
def batch(rng):
    x = rng.standard_normal((8, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 4, 8)
    return x, y


def prune_half(model):
    for module in model.modules():
        if isinstance(module, PrunableWeightMixin):
            weight = module.weight.data
            cut = np.median(np.abs(weight))
            module.set_weight_mask((np.abs(weight) > cut).astype(np.float32))


class TestGradPlanParity:
    """The oracle twins: exact plans bitwise, fast plans within tolerance."""

    def test_tiny_cnn(self, batch):
        model = make_tiny_cnn()
        report = oracle_grad_plan_parity(model, *batch)
        assert report.passed, report.summary()

    def test_tiny_cnn_pruned(self, batch):
        model = make_tiny_cnn()
        prune_half(model)
        report = oracle_grad_plan_parity(model, *batch)
        assert report.passed, report.summary()

    def test_exact_plan_gradients_bitwise(self, batch):
        """Direct restatement of the exact half of the oracle: every grad
        out of the exact plan is the tape's array, bit for bit."""
        from repro.autograd.tensor import Tensor

        x, y = batch
        model = make_tiny_cnn()
        loss_fn = CrossEntropyLoss()
        model.train()
        logits = model(Tensor(x))
        loss = loss_fn(logits, y)
        loss.backward()
        want = {name: p.grad.copy() for name, p in model.named_parameters()}
        for _, p in model.named_parameters():
            p.grad = None
        plan = GradPlan(trace_training(model, loss_fn, x, y), model, exact=True)
        plan_loss, plan_logits, grads, _ = plan.run(x, y)
        assert float(plan_loss) == float(loss.data)
        np.testing.assert_array_equal(plan_logits, logits.data)
        assert set(grads) == set(want)
        for name in want:
            np.testing.assert_array_equal(grads[name], want[name], err_msg=name)

    def test_plan_is_repeatable(self, batch):
        """Scratch/in-place buffer reuse must not leak state across runs."""
        x, y = batch
        model = make_tiny_cnn()
        plan = GradPlan(
            trace_training(model, CrossEntropyLoss(), x, y), model, exact=False
        )
        first = plan.run(x, y)
        second = plan.run(x, y)
        assert float(first[0]) == float(second[0])
        for name, grad in first[2].items():
            np.testing.assert_array_equal(grad, second[2][name], err_msg=name)


class TestRejectedPlan:
    def test_broken_backward_falls_back_and_says_why(self, batch, monkeypatch):
        """A fast plan whose gradient fails both gates is refused: the step
        runs on the tape, and the fallback event names the parameter and
        the numbers the gates judged."""
        from repro.autograd.tensor import Tensor
        from repro.infer import grad
        from repro.infer.trainengine import _GRAD_RNORM

        monkeypatch.setenv("REPRO_TRAINC", "1")
        original = grad.KTABLE_FAST["linear_bwd_w"]
        monkeypatch.setitem(
            grad.KTABLE_FAST, "linear_bwd_w", lambda a, p: 2.0 * original(a, p)
        )
        events = capture_events(monkeypatch)
        x, y = batch
        model, twin = make_tiny_cnn(), make_tiny_cnn()
        loss_fn = CrossEntropyLoss()
        engine = TrainEngine(model, loss_fn, SGD(model.parameters(), lr=0.05))
        loss, _ = engine.step(x, y)
        assert not engine.compiled_for(x, y)

        # The same step on the tape, by hand: the engine must match it bitwise.
        twin.train()
        optimizer = SGD(twin.parameters(), lr=0.05)
        want = loss_fn(twin(Tensor(x)), y)
        optimizer.zero_grad()
        want.backward()
        optimizer.step()
        assert loss == float(want.data)
        for (name, got), ref in zip(
            model.state_dict().items(), twin.state_dict().values()
        ):
            np.testing.assert_array_equal(got, ref, err_msg=name)

        [reason] = [a["reason"] for n, a in events if n == "trainc.fallback"]
        assert "gradient parity failed for '10.weight'" in reason
        assert not [n for n, _ in events if n == "trainc.tiebreak"]
        # Refused by both judges: the float32 tape, then the float64 one.
        float32, float64 = reason.split("; against a float64 tape step, ")
        for judged in (float32, float64):
            assert "gradient parity failed for '10.weight'" in judged
            match = re.search(
                r"max abs diff (\S+) > bound (\S+), "
                r"relative l2 diff (\S+) > ([\d.]+)",
                judged,
            )
            assert match, judged
            diff, bound, rel, rnorm = (float(v) for v in match.groups())
            assert diff > bound
            assert rel == pytest.approx(1.0, abs=1e-2)  # doubled gradient
            assert rnorm == _GRAD_RNORM

    def test_plan_refused_only_by_a_wrong_float32_tape_is_accepted(
        self, batch, monkeypatch
    ):
        """The float64 tie-break: a fast plan that fails against the float32
        tape but passes every check against float64 serves its shape, the
        ``trainc.tiebreak`` event carries both gaps, and the live model —
        parameters, ``grad`` slots, buffers — comes out bitwise unchanged
        and still float32."""
        from repro.infer import trainengine

        events = capture_events(monkeypatch)
        corrupt_float32_reference(monkeypatch, "10.weight")
        twins = spy_on_float64_twin(monkeypatch)
        x, y = batch
        model = make_tiny_cnn()
        prune_half(model)
        rng = np.random.default_rng(1)
        for p in model.parameters():
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        state = {k: v.copy() for k, v in model.state_dict().items()}
        grads = {k: p.grad.copy() for k, p in model.named_parameters()}
        engines = set(trainengine._TRAIN_ENGINES.keys())
        engine = TrainEngine(
            model, CrossEntropyLoss(), SGD(model.parameters(), lr=0.05)
        )

        assert engine._compile(x, y) is not None
        assert engine.compiled_for(x, y)
        assert not [n for n, _ in events if n == "trainc.fallback"]
        [tiebreak] = [a for n, a in events if n == "trainc.tiebreak"]
        assert tiebreak["shape"] == list(x.shape)
        assert tiebreak["param"] == "10.weight"
        assert tiebreak["float32"]["max_abs_diff"] == pytest.approx(1.0, abs=1e-3)
        assert tiebreak["float64"]["max_abs_diff"] < 1e-4
        assert tiebreak["float64"]["rel_l2_diff"] < 1e-3

        [twin] = twins
        assert twin is not model
        assert {p.dtype for p in twin.parameters()} == {np.dtype(np.float64)}
        assert {b.dtype for _, b in twin.named_buffers()} == {np.dtype(np.float64)}
        for key, value in model.state_dict().items():
            assert value.dtype == np.float32, key
            assert value.tobytes() == state[key].tobytes(), key
        for key, p in model.named_parameters():
            assert p.grad.dtype == np.float32, key
            assert p.grad.tobytes() == grads[key].tobytes(), key
        assert set(trainengine._TRAIN_ENGINES.keys()) <= engines

    def test_exact_mode_never_runs_the_float64_step(self, batch, monkeypatch):
        """Exact plans stay bitwise against the float32 tape: a refusal
        there is final, with no float64 judgment."""
        events = capture_events(monkeypatch)
        corrupt_float32_reference(monkeypatch, "10.weight")
        twins = spy_on_float64_twin(monkeypatch)
        x, y = batch
        model = make_tiny_cnn()
        engine = TrainEngine(
            model, CrossEntropyLoss(), SGD(model.parameters(), lr=0.05), exact=True
        )
        assert engine._compile(x, y) is None
        assert twins == []
        [reason] = [a["reason"] for n, a in events if n == "trainc.fallback"]
        assert "exact mode allows none" in reason
        assert "float64" not in reason

    def test_parity_refusal_is_rejudged_next_phase(self, batch, monkeypatch):
        """A parity refusal holds for one training phase: within the phase
        the shape stays on the tape, and the next ``train_engine_for`` call
        judges it afresh on that phase's probe batch."""
        from repro.infer import grad, train_engine_for

        monkeypatch.setenv("REPRO_TRAINC", "1")
        original = grad.KTABLE_FAST["linear_bwd_w"]
        monkeypatch.setitem(
            grad.KTABLE_FAST, "linear_bwd_w", lambda a, p: 2.0 * original(a, p)
        )
        x, y = batch
        model = make_tiny_cnn()
        loss_fn = CrossEntropyLoss()
        engine = train_engine_for(model, loss_fn, SGD(model.parameters(), lr=0.05))
        engine.step(x, y)
        assert not engine.compiled_for(x, y)
        monkeypatch.setitem(grad.KTABLE_FAST, "linear_bwd_w", original)
        engine.step(x, y)
        assert not engine.compiled_for(x, y)  # same phase: still refused

        again = train_engine_for(model, loss_fn, SGD(model.parameters(), lr=0.05))
        assert again is engine
        again.step(x, y)
        assert again.compiled_for(x, y)

    def test_trace_refusal_lasts_for_good(self, batch, monkeypatch):
        """An untraceable model is not re-traced phase after phase."""
        from repro.infer import TraceError, train_engine_for, trainengine

        monkeypatch.setenv("REPRO_TRAINC", "1")
        calls = []

        def untraceable(*args, **kwargs):
            calls.append(args)
            raise TraceError("untraceable")

        monkeypatch.setattr(trainengine, "trace_training", untraceable)
        x, y = batch
        model = make_tiny_cnn()
        loss_fn = CrossEntropyLoss()
        for _ in range(3):
            engine = train_engine_for(
                model, loss_fn, SGD(model.parameters(), lr=0.05)
            )
            engine.step(x, y)
            assert not engine.compiled_for(x, y)
        assert len(calls) == 1


def capture_events(monkeypatch) -> list:
    """Record every ``observe.event`` as ``(name, attrs)``."""
    from repro import observe

    events = []
    monkeypatch.setattr(
        observe, "event", lambda name, **attrs: events.append((name, attrs))
    )
    return events


def corrupt_float32_reference(monkeypatch, param: str) -> None:
    """Offset one gradient of the float32 tape reference by 1.0, leaving the
    float64 reference exact: a plan that is right then disagrees only with
    a wrong float32 tape."""
    original = TrainEngine._tape_reference

    def reference(self, x, y, model=None):
        loss, logits, grads, buffers = original(self, x, y, model)
        if x.dtype == np.float32:
            grads = {**grads, param: grads[param] + np.float32(1.0)}
        return loss, logits, grads, buffers

    monkeypatch.setattr(TrainEngine, "_tape_reference", reference)


def spy_on_float64_twin(monkeypatch) -> list:
    """Record every float64 model copy validation makes."""
    from repro.infer import trainengine

    original = trainengine._float64_twin
    twins = []

    def twin(model):
        twins.append(original(model))
        return twins[-1]

    monkeypatch.setattr(trainengine, "_float64_twin", twin)
    return twins


class TestFusedConvBnReluGradients:
    """Finite-difference gradcheck of the fused forward/backward pair.

    The fused kernels never see the autograd tape, so the generic
    ``gradcheck`` machinery cannot reach them; this drives them directly
    in float64 against central differences.
    """

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.x = rng.standard_normal((2, 2, 4, 4))
        self.w = rng.standard_normal((3, 2, 3, 3)) * 0.5
        self.gamma = rng.uniform(0.5, 1.5, 3)
        self.beta = rng.standard_normal(3) * 0.1
        self.params = {
            "stride": 1,
            "padding": 1,
            "eps": 1e-5,
            "ndim": 4,
            "n_conv_args": 2,
            "has_bias": False,
            "need_gx": True,
            "wshape": self.w.shape,
            "xshape": self.x.shape,
        }

    def _loss(self):
        out = _k_conv_bn_relu(
            (self.x, self.w, self.gamma, self.beta), dict(self.params)
        )
        return float(out[0].sum())

    def _fd(self, array, eps=1e-6):
        grad = np.zeros_like(array)
        flat, gflat = array.ravel(), grad.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = self._loss()
            flat[j] = orig - eps
            lo = self._loss()
            flat[j] = orig
            gflat[j] = (hi - lo) / (2 * eps)
        return grad

    def test_against_finite_differences(self):
        params = dict(self.params)
        tup = _k_conv_bn_relu((self.x, self.w, self.gamma, self.beta), params)
        g = np.ones_like(tup[0])
        gx, gw, gb, ggamma, gbeta = _k_conv_bn_relu_bwd(
            (g, tup, self.x, self.w, self.gamma), params
        )
        assert gb is None  # bias-free conv, as under BatchNorm
        for name, analytic, array in (
            ("gx", gx, self.x),
            ("gw", gw, self.w),
            ("ggamma", ggamma, self.gamma),
            ("gbeta", gbeta, self.beta),
        ):
            numeric = self._fd(array)
            np.testing.assert_allclose(
                analytic, numeric, atol=1e-5, rtol=1e-4, err_msg=name
            )


@pytest.mark.parametrize("name", available_models())
def test_registry_compiled_step_smoke(name, monkeypatch):
    """Tier-1 canary: every registry architecture takes one *compiled*
    training step — compile, validate against the tape, and apply — with
    the environment override pinned on."""
    monkeypatch.setenv("REPRO_TRAINC", "1")
    model = build_model(name, rng=np.random.default_rng(3))
    rng = np.random.default_rng(0)
    shape = (4, 3, 4, 4) if name == "mlp" else (4, 3, 16, 16)
    x = rng.standard_normal(shape).astype(np.float32)
    if name == "deeplab_small":
        y = rng.integers(0, 6, (4, 16, 16))
    else:
        y = rng.integers(0, 10, 4)
    before = {k: v.copy() for k, v in model.state_dict().items()}
    engine = TrainEngine(
        model, CrossEntropyLoss(), SGD(model.parameters(), lr=0.05, momentum=0.9)
    )
    loss, logits = engine.step(x, y)
    assert engine.compiled_for(x, y), f"{name} fell back to the tape"
    assert np.isfinite(loss) and np.all(np.isfinite(logits))
    changed = any(
        not np.array_equal(before[k], v)
        for k, v in model.state_dict().items()
    )
    assert changed, "compiled step left the model untouched"
    # Leaves are bound live, which is only safe if no step writes into one:
    # a direct run leaves the batch, the labels and the model state intact.
    plan = engine._plans[(x.shape, x.dtype.str, y.shape)]
    leaves = {"x": x.copy(), "y": y.copy(), **model.state_dict()}
    plan.run(x, y)
    for key, value in {"x": x, "y": y, **model.state_dict()}.items():
        assert value.tobytes() == leaves[key].tobytes(), f"run wrote into {key}"
