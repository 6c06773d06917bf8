"""Each output check passes on a real output and fails on a corrupted one."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import checks
import workloads
from repro.analysis.prune_potential import PruneAccuracyCurve
from repro.infer.engine import InferenceEngine
from repro.models import build_model
from repro.pruning import build_method
from repro.pruning.pipeline import PruneCheckpoint, PruneRun
from repro.serve.loadgen import BENCH_SHAPES, TrafficMix, build_bench_registry


def resnet(width: int = 4, seed: int = 0):
    return build_model("resnet20", num_classes=10, base_width=width,
                       rng=np.random.default_rng(seed))


class TestRatios:
    def test_ft_lands_within_its_granularity(self):
        model = resnet()
        granularity = checks.ft_granularity(model)
        assert 0 < granularity < 0.1
        method = build_method("ft")
        achieved = [method.prune(model, t) for t in workloads.TARGETS]
        assert checks.check_ratios(achieved, workloads.TARGETS, granularity) == []

    def test_perturbed_ratio_fails(self):
        granularity = 0.02
        good = [0.41, 0.81]
        assert checks.check_ratios(good, (0.4, 0.8), granularity) == []
        assert checks.check_ratios([0.41, 0.79], (0.4, 0.8), granularity)
        assert checks.check_ratios([0.41, 0.83], (0.4, 0.8), granularity)
        assert checks.check_ratios([0.41], (0.4, 0.8), granularity)


class TestParentError:
    def test_below_chance_passes(self):
        assert checks.check_parent_error([0.55], num_classes=10) == []

    def test_at_chance_fails(self):
        assert checks.check_parent_error([0.9], num_classes=10)


class TestPlanParity:
    def inputs(self):
        return np.random.default_rng(1).standard_normal((8, 3, 16, 16)).astype(np.float32)

    def test_compiled_plan_matches_module(self):
        assert checks.check_plan_parity(resnet(), self.inputs()) == []

    def test_perturbed_logit_fails(self, monkeypatch):
        real = InferenceEngine.logits

        def perturbed(self, images, *args, **kwargs):
            out = real(self, images, *args, **kwargs).copy()
            out[0, 0] += 1e-2
            return out

        monkeypatch.setattr(InferenceEngine, "logits", perturbed)
        assert checks.check_plan_parity(resnet(), self.inputs())


class TestNominalMatchesArtifact:
    def run_and_curve(self):
        state = {"w": np.zeros(2, dtype=np.float32)}
        run = PruneRun(
            method_name="wt",
            parent_state=state,
            parent_test_error=0.25,
            checkpoints=[
                PruneCheckpoint(0.4, 0.4, 0.3, state),
                PruneCheckpoint(0.8, 0.8, 0.5, state),
            ],
        )
        curve = PruneAccuracyCurve("nominal", run.ratios, run.test_errors.copy(), 0.25)
        return run, curve

    def test_equal_errors_pass(self):
        run, curve = self.run_and_curve()
        assert checks.check_nominal_matches_artifact(curve, run) == []

    def test_wrong_stored_error_fails(self):
        run, curve = self.run_and_curve()
        run.checkpoints[1] = dataclasses.replace(run.checkpoints[1], test_error=0.5000001)
        assert checks.check_nominal_matches_artifact(curve, run)

    def test_wrong_parent_error_fails(self):
        run, curve = self.run_and_curve()
        run.parent_test_error = 0.26
        assert checks.check_nominal_matches_artifact(curve, run)


class TestServedParity:
    @pytest.fixture(scope="class")
    def served(self):
        registry = build_bench_registry(seed=0, models=("resnet20", "densenet22"))
        for key in registry.keys():
            registry.warm(key, list(BENCH_SHAPES))
        mixes = [TrafficMix(k, s) for k in registry.keys() for s in BENCH_SHAPES]
        arrivals = workloads._arrivals(mixes, 40, seed=3)
        pools = workloads._image_pools(0, BENCH_SHAPES)
        out = workloads._replay(registry, arrivals, pools, np.random.default_rng(0))
        return registry, out["records"]

    def test_served_responses_pass(self, served):
        registry, records = served
        assert checks.check_served_parity(registry, records, per_model=100, seed=0) == []

    def test_perturbed_logit_fails(self, served):
        registry, records = served
        victim = next(r for r in records if r[2].status == "ok")[2]
        original = victim.value
        victim.value = original.copy()
        victim.value[0, 0] = np.nextafter(victim.value[0, 0], np.float32(np.inf))
        try:
            problems = checks.check_served_parity(registry, records, per_model=100, seed=0)
        finally:
            victim.value = original
        assert problems

    def test_a_model_without_responses_fails(self, served):
        registry, records = served
        first = registry.keys()[0]
        rest = [r for r in records if r[0].mix.key != first]
        assert checks.check_served_parity(registry, rest, per_model=100, seed=0)
