"""The inference engine: parity, cache invalidation, fallback, opt-out,
and eval plans shared across model objects."""

import numpy as np
import pytest

from repro import nn, observe
from repro.autograd import Tensor, no_grad
from repro.infer import CompiledPlan, InferenceEngine, engine_for
from repro.infer import engine as infer_engine
from repro.observe import load_report
from repro.pruning import build_method
from repro.pruning.mask import prunable_layers

from tests.conftest import make_tiny_cnn


def module_logits(model, images):
    """Reference eval forward through the plain module."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return model(Tensor(images)).data.copy()
    finally:
        model.train(was_training)


def assert_parity(got, want):
    """Scale-aware bound: BN-folding error rides on the largest activation."""
    bound = 1e-5 + 1e-5 * float(np.abs(want).max())
    assert float(np.abs(got - want).max()) <= bound


class Detour(nn.Module):
    """Untraceable forward: the output tensor is built outside the tape."""

    def forward(self, x):
        return Tensor(np.tanh(x.data).sum(axis=(2, 3)))


@pytest.fixture
def images(rng):
    return rng.standard_normal((32, 3, 8, 8)).astype(np.float32)


@pytest.fixture
def observed(tmp_path, monkeypatch):
    """``observed(body)`` runs ``body()`` under a fresh ledger and returns
    its trace report."""
    monkeypatch.delenv(observe.DIR_ENV, raising=False)

    def run(body):
        path = observe.configure(dir=tmp_path)
        try:
            body()
        finally:
            observe.shutdown()
        return load_report(path)

    return run


def compiles_and_binds(report) -> tuple[int, int]:
    return (
        report.span_count("infer.compile"),
        int(report.counters.get("infer.plan_shared", 0)),
    )


class TestParity:
    def test_compiled_logits_match_module(self, images):
        model = make_tiny_cnn()
        engine = InferenceEngine(model)
        got = engine.logits(images)
        assert engine.compiled_for(images)
        assert_parity(got, module_logits(model, images))

    def test_pruned_model_parity(self, images):
        model = make_tiny_cnn()
        build_method("wt").prune(model, 0.5)
        engine = InferenceEngine(model)
        got = engine.logits(images)
        assert engine.compiled_for(images)
        assert_parity(got, module_logits(model, images))

    def test_tail_chunk_is_padded_not_recompiled(self, images):
        engine = InferenceEngine(make_tiny_cnn(), batch_size=8)
        got = engine.logits(images[:5])
        assert_parity(got, module_logits(engine.model, images[:5]))
        # 5 rows pad up to 8; only the one 8-row plan exists.
        assert len([p for p in engine._plans.values() if p is not None]) == 1
        assert_parity(engine.logits(images), module_logits(engine.model, images))

    def test_train_mode_untouched_and_eval_stats_used(self, images):
        model = make_tiny_cnn()
        want = module_logits(model, images)  # eval-mode running stats
        model.train()
        got = InferenceEngine(model).logits(images)
        assert model.training
        assert_parity(got, want)


class TestInvalidation:
    def test_weight_update_refreshes_constants(self, images):
        model = make_tiny_cnn()
        engine = InferenceEngine(model)
        engine.logits(images)
        for _, param in model.named_parameters():
            param.data += 0.01  # in-place, like an SGD step
        assert_parity(engine.logits(images), module_logits(model, images))

    def test_new_mask_refreshes_densified_weights(self, images):
        model = make_tiny_cnn()
        engine = InferenceEngine(model)
        before = engine.logits(images)
        for _, layer in prunable_layers(model):
            weight = layer.weight.data
            cut = np.median(np.abs(weight))
            layer.set_weight_mask((np.abs(weight) > cut).astype(np.float32))
        after = engine.logits(images)
        assert not np.allclose(before, after)
        assert_parity(after, module_logits(model, images))

    def test_mutate_then_restore_does_not_serve_stale_constants(self, images):
        """Drift a param in place, restore via load_state_dict (which rebinds
        parameter arrays), and check the plan does not keep serving the
        drifted orphans.  The content signature is identical before and
        after the round-trip, so this only passes if refresh snapshots by
        copy instead of aliasing the model's live arrays."""
        model = make_tiny_cnn()
        engine = InferenceEngine(model)
        state = model.state_dict()
        want = engine.logits(images)
        assert engine.compiled_for(images)
        for _, param in model.named_parameters():
            param.data += 0.05  # in-place: drifts any array the plan aliased
        model.load_state_dict(state)  # rebinds params; contents == original
        got = engine.logits(images)
        np.testing.assert_array_equal(got, want)
        assert_parity(got, module_logits(model, images))


class TestFallback:
    def test_untraceable_model_falls_back(self, images):
        model = Detour()
        engine = InferenceEngine(model)
        got = engine.logits(images)
        assert not engine.compiled_for(images)
        np.testing.assert_array_equal(got, module_logits(model, images))

    def test_opt_out_env(self, images, monkeypatch):
        monkeypatch.setenv("REPRO_INFER", "0")
        model = make_tiny_cnn()
        engine = InferenceEngine(model)
        got = engine.logits(images)
        assert not engine.compiled_for(images)
        np.testing.assert_array_equal(got, module_logits(model, images))

    def test_fallback_restores_train_mode_on_exception(self, images):
        class Boom(nn.Module):
            def forward(self, x):
                raise RuntimeError("boom")

        model = Boom()
        model.train()
        with pytest.raises(RuntimeError):
            InferenceEngine(model).logits(images)
        assert model.training


class TestApi:
    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            InferenceEngine(make_tiny_cnn()).logits(np.empty((0, 3, 8, 8)))

    def test_predict_and_proba(self, images):
        engine = InferenceEngine(make_tiny_cnn())
        preds = engine.predict(images)
        probs = engine.predict_proba(images)
        assert preds.shape == (32,)
        assert probs.shape == (32, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)
        np.testing.assert_array_equal(probs.argmax(axis=1), preds)

    def test_autotune_adopts_a_candidate(self, images):
        engine = InferenceEngine(make_tiny_cnn())
        best = engine.autotune_batch_size(images, candidates=(8, 16), repeats=1)
        assert best in (8, 16)
        assert engine.batch_size == best

    def test_engine_for_caches_and_passes_through(self):
        model = make_tiny_cnn()
        engine = engine_for(model)
        assert engine_for(model) is engine
        assert engine_for(engine) is engine


class TestCompileRuns:
    def test_first_chunk_is_served_from_the_validation_run(self, images, monkeypatch):
        real_run = CompiledPlan.run
        runs = []

        def counting_run(plan, x):
            runs.append(x.shape[0])
            return real_run(plan, x)

        monkeypatch.setattr(CompiledPlan, "run", counting_run)
        engine = InferenceEngine(make_tiny_cnn())
        got = engine.logits(images[:20])  # one chunk, padded to 32 rows
        # The self-check run serves the chunk; the other two are the
        # row-independence checks.  No fourth run of the same probe.
        assert runs == [32, 32, 32]
        padded = np.zeros((32, 3, 8, 8), dtype=np.float32)
        padded[:20] = images[:20]
        plan = engine._plans[(padded.shape, padded.dtype.str)]
        np.testing.assert_array_equal(got, real_run(plan, padded)[:20])

        runs.clear()
        other = InferenceEngine(make_tiny_cnn(seed=5))
        got = other.logits(images[:20])
        assert runs == [32]  # a shared bind: one checked run, served as is
        plan = other._plans[(padded.shape, padded.dtype.str)]
        np.testing.assert_array_equal(got, real_run(plan, padded)[:20])


class TestSharedPlans:
    def test_same_architecture_compiles_once_and_binds_once(self, images, observed):
        a, b = make_tiny_cnn(seed=1), make_tiny_cnn(seed=2)
        got = {}

        def body():
            got["a"] = InferenceEngine(a).logits(images)
            got["b"] = InferenceEngine(b).logits(images)

        assert compiles_and_binds(observed(body)) == (1, 1)
        assert not np.array_equal(got["a"], got["b"])
        for name, model in (("a", a), ("b", b)):
            infer_engine._TEMPLATES.clear()
            alone = InferenceEngine(model)
            np.testing.assert_array_equal(got[name], alone.logits(images))
            assert_parity(got[name], module_logits(model, images))

    @pytest.mark.parametrize(
        "variant", ["architecture", "masks", "fold_bn", "rows", "dtype"]
    )
    def test_no_share_across(self, variant, images, observed):
        first, second = make_tiny_cnn(seed=1), make_tiny_cnn(seed=2)
        first_images = second_images = images
        kwargs = {}
        if variant == "architecture":
            second = make_tiny_cnn(num_classes=5, seed=2)
        elif variant == "masks":
            build_method("wt").prune(second, 0.5)
        elif variant == "fold_bn":
            kwargs = {"fold_bn": False}
        elif variant == "rows":
            second_images = images[:16]
        elif variant == "dtype":
            second_images = images.astype(np.float64)

        def body():
            InferenceEngine(first).logits(first_images)
            got = InferenceEngine(second, **kwargs).logits(second_images)
            assert_parity(got, module_logits(second, second_images))

        assert compiles_and_binds(observed(body)) == (2, 0)

    def test_parity_failure_falls_back_to_a_full_compile(
        self, images, observed, monkeypatch
    ):
        """Scaling the output outside the traced ops leaves the trace equal
        to the template's, so the bind happens and must be refused."""
        a, b = make_tiny_cnn(seed=1), make_tiny_cnn(seed=2)
        forward = b.forward

        def scaled(x):
            out = forward(x)
            out.data *= 2.0
            return out

        monkeypatch.setattr(b, "forward", scaled)
        got = {}

        def body():
            InferenceEngine(a).logits(images)
            got["b"] = InferenceEngine(b).logits(images)

        report = observed(body)
        assert report.event_counts.get("infer.share_rejected") == 1
        assert compiles_and_binds(report) == (2, 0)
        # The full compile fails its self-check too: b is served by its
        # own (scaled) module forward, never by a's plan.
        np.testing.assert_array_equal(got["b"], module_logits(b, images))

    def test_template_capacity_holds(self, images, monkeypatch, observed):
        monkeypatch.setattr(infer_engine, "_TEMPLATE_CAPACITY", 2)
        model = make_tiny_cnn()
        engine = InferenceEngine(model, batch_size=32)
        for rows in (8, 16, 32):
            engine.logits(images[:rows])
        assert len(infer_engine._TEMPLATES) == 2
        shapes = [key[0][0] for key in infer_engine._TEMPLATES]
        assert shapes == [16, 32]  # the least recent (8 rows) went first

        def body():
            other = InferenceEngine(make_tiny_cnn(seed=3), batch_size=32)
            other.logits(images[:16])  # still a template: binds
            other.logits(images[:8])  # evicted: compiles again

        assert compiles_and_binds(observed(body)) == (1, 1)
        assert len(infer_engine._TEMPLATES) == 2

    def test_evicted_serve_plan_rebinds_through_the_template(self, rng, observed):
        from tests.serve.conftest import ROW_SHAPE, images_for, make_registry

        one_plan = make_registry(n_models=1)
        one_plan.warm("cnn0/wt@0.5", [ROW_SHAPE])
        budget = one_plan.plan_memory_bytes()
        registry = make_registry(n_models=2, memory_budget_bytes=budget)
        batch = images_for(rng, rows=3)
        engine0 = registry.engine("cnn0/wt@0.5")
        served = {}

        def body():
            served["before"] = engine0.logits(batch)
            registry.warm("cnn1/wt@0.5", [ROW_SHAPE])  # evicts cnn0's plan
            assert not engine0.compiled_for(batch)
            served["after"] = engine0.logits(batch)

        report = observed(body)
        assert registry.evictions >= 1
        # The budget probe compiled the template.  It outlives the
        # registry's eviction: cnn0's first use, cnn1's warm-up and the
        # re-served cnn0 all bind it instead of compiling.
        assert compiles_and_binds(report) == (0, 3)
        np.testing.assert_array_equal(served["after"], served["before"])
