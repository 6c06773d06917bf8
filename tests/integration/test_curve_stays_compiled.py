"""Regression: the FT prune curve on base seed 105 retrains on compiled plans.

At this scale (the repository benchmark's ``curve_ft_cold``) the first
retrain phase's 64-row fast plan once failed validation on
``stages.1.bn1.weight``: one ReLU gate in 65,536 had a pre-activation of
+8.7e-6 on the float32 tape and -7.3e-6 in float64, so the float32 tape,
not the plan, was off the gradient.  The refusal sent both retrain phases
to the autograd tape.  Judged against a float64 tape step, the plan passes.
"""

import pytest

from repro import observe
from repro.observe import load_report

pytestmark = pytest.mark.tier2


def test_seed_105_ft_curve_never_falls_back_to_the_tape(tmp_path, monkeypatch):
    from repro.experiments import SMOKE, prune_curve_experiment

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_TRAINC", "1")
    monkeypatch.delenv(observe.DIR_ENV, raising=False)
    scale = SMOKE.with_(
        parent_epochs=4,
        retrain_epochs=2,
        target_ratios=(0.4, 0.8),
        n_repetitions=1,
        base_seed=105,
    )
    path = observe.configure(dir=tmp_path / "obs")
    try:
        prune_curve_experiment("cifar", "resnet20", "ft", scale, jobs=1)
    finally:
        observe.shutdown()

    report = load_report(path)
    assert "trainc.fallback" not in report.event_counts, report.training
    assert "trainc.fallback_batches" not in report.counters, report.training
    assert report.training["compiled_batches"] > 0
