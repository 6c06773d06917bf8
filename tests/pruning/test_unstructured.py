"""WT and SiPP: selection correctness, targets, monotonicity."""

import numpy as np
import pytest

from repro import nn
from repro.pruning import SiPP, WeightThresholding, model_prune_ratio
from repro.pruning.base import collect_activation_stats, global_threshold_prune
from repro.pruning.mask import prunable_layers
from repro.pruning.sipp import relative_weight_sensitivity

from tests.conftest import make_tiny_cnn


def sample_batch(rng, shape=(8, 3, 8, 8)):
    return rng.standard_normal(shape).astype(np.float32)


class TestGlobalThreshold:
    def test_achieves_exact_count(self):
        model = make_tiny_cnn()
        sens = {n: np.abs(l.weight.data) for n, l in prunable_layers(model)}
        achieved = global_threshold_prune(model, sens, 0.5)
        assert achieved == pytest.approx(0.5, abs=0.01)

    def test_prunes_lowest_sensitivity(self, rng):
        layer = nn.Linear(4, 2, bias=False, rng=rng)
        model = nn.Sequential(layer)
        sens = {"0": np.arange(8, dtype=float).reshape(2, 4)}
        global_threshold_prune(model, sens, 0.5)
        # Lowest four sensitivities (0..3) = first row pruned.
        np.testing.assert_array_equal(layer.weight_mask, [[0, 0, 0, 0], [1, 1, 1, 1]])


class TestWT:
    def test_target_achieved(self):
        model = make_tiny_cnn()
        achieved = WeightThresholding().prune(model, 0.7)
        assert achieved == pytest.approx(0.7, abs=0.01)
        assert model_prune_ratio(model) == pytest.approx(achieved)

    def test_prunes_smallest_magnitudes(self, rng):
        layer = nn.Linear(3, 2, bias=False, rng=rng)
        layer.weight.data[:] = [[0.1, -5.0, 3.0], [-0.2, 0.05, 2.0]]
        model = nn.Sequential(layer)
        WeightThresholding().prune(model, 0.5)
        np.testing.assert_array_equal(layer.weight_mask, [[0, 1, 1], [0, 0, 1]])

    def test_monotone_iterative(self):
        model = make_tiny_cnn()
        wt = WeightThresholding()
        wt.prune(model, 0.3)
        masks_30 = {n: l.weight_mask.copy() for n, l in prunable_layers(model)}
        wt.prune(model, 0.6)
        for n, l in prunable_layers(model):
            # no weight revived
            assert not ((masks_30[n] == 0) & (l.weight_mask == 1)).any()

    def test_target_inside_the_rounding_overshoot_is_accepted(self):
        """0.95 of 2,424 weights rounds up to 2,303 (ratio 0.95008), so a
        following request for 0.95 names the same weight count."""
        model = make_tiny_cnn()
        wt = WeightThresholding()
        first = wt.prune(model, 0.9499999999999998)
        assert first > 0.95
        assert wt.prune(model, 0.95) == first

    def test_decreasing_target_raises(self):
        model = make_tiny_cnn()
        wt = WeightThresholding()
        wt.prune(model, 0.5)
        with pytest.raises(ValueError, match="monotone"):
            wt.prune(model, 0.3)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_invalid_target_raises(self, bad):
        with pytest.raises(ValueError):
            WeightThresholding().prune(make_tiny_cnn(), bad)

    def test_zero_target_noop(self):
        model = make_tiny_cnn()
        WeightThresholding().prune(model, 0.0)
        assert model_prune_ratio(model) == 0.0


class TestActivationStats:
    def test_captures_all_prunable_layers(self, rng):
        model = make_tiny_cnn()
        stats = collect_activation_stats(model, sample_batch(rng))
        for name, layer in prunable_layers(model):
            assert name in stats
            expected_len = (
                layer.in_channels if isinstance(layer, nn.Conv2d) else layer.in_features
            )
            assert stats[name].shape == (expected_len,)
            assert (stats[name] >= 0).all()

    def test_eval_mode_and_hooks_removed(self, rng):
        model = make_tiny_cnn()
        model.train()
        collect_activation_stats(model, sample_batch(rng))
        assert model.training  # restored
        assert all(not m._forward_hooks for m in model.modules())


class TestRelativeSensitivity:
    def test_rows_sum_to_one_linear(self, rng):
        w = rng.standard_normal((4, 6))
        a = rng.random(6)
        s = relative_weight_sensitivity(w, a)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, rtol=1e-5)

    def test_rows_sum_to_one_conv(self, rng):
        w = rng.standard_normal((4, 3, 3, 3))
        a = rng.random(3)
        s = relative_weight_sensitivity(w, a)
        np.testing.assert_allclose(s.sum(axis=(1, 2, 3)), 1.0, rtol=1e-5)

    def test_zero_activation_kills_sensitivity(self, rng):
        w = rng.standard_normal((2, 3)) + 1.0
        a = np.array([1.0, 0.0, 1.0])
        s = relative_weight_sensitivity(w, a)
        np.testing.assert_allclose(s[:, 1], 0.0, atol=1e-9)

    def test_bad_ndim_raises(self):
        with pytest.raises(ValueError):
            relative_weight_sensitivity(np.zeros((2, 2, 2)), np.zeros(2))


class TestSiPP:
    def test_requires_sample(self):
        with pytest.raises(ValueError, match="data-informed"):
            SiPP().prune(make_tiny_cnn(), 0.5, sample_inputs=None)

    def test_target_achieved(self, rng):
        model = make_tiny_cnn()
        achieved = SiPP().prune(model, 0.6, sample_batch(rng))
        assert achieved == pytest.approx(0.6, abs=0.01)

    def test_differs_from_wt(self, rng):
        """Data-informed selection must not coincide with magnitude pruning."""
        a, b = make_tiny_cnn(seed=3), make_tiny_cnn(seed=3)
        WeightThresholding().prune(a, 0.5)
        SiPP().prune(b, 0.5, sample_batch(rng))
        same = all(
            np.array_equal(la.weight_mask, lb.weight_mask)
            for (_, la), (_, lb) in zip(prunable_layers(a), prunable_layers(b))
        )
        assert not same

    def test_monotone_iterative(self, rng):
        model = make_tiny_cnn()
        sipp = SiPP()
        sipp.prune(model, 0.3, sample_batch(rng))
        masks = {n: l.weight_mask.copy() for n, l in prunable_layers(model)}
        sipp.prune(model, 0.7, sample_batch(rng))
        for n, l in prunable_layers(model):
            assert not ((masks[n] == 0) & (l.weight_mask == 1)).any()
