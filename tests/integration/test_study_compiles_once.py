"""Regression: a corruption study compiles its eval plan once, not per cell.

Every cell of ``corruption_potential_experiment`` builds a fresh model of
one architecture and evaluates it on one padded chunk shape.  The first
cell pays the full compile (trace, self-check, row-independence checks);
every later cell binds the process's plan template to its own model and
checks it against that model's forward.  The curves must not depend on
whether a cell bound a template or compiled its own plan.
"""

import numpy as np
import pytest

from repro import observe
from repro.infer import engine as infer_engine
from repro.observe import load_report

pytestmark = pytest.mark.tier2

CORRUPTIONS = ("gaussian_noise", "fog", "contrast")


def test_study_compiles_once_and_shares_bitwise(tmp_path, monkeypatch):
    from repro.experiments import (
        SMOKE,
        ZooSpec,
        build_zoo,
        corruption_potential_experiment,
    )
    from repro.experiments import corruption_study

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv(observe.DIR_ENV, raising=False)
    scale = SMOKE.with_(
        n_train=200, n_test=64, image_size=8, sample_size=16,
        parent_epochs=2, retrain_epochs=1, target_ratios=(0.4, 0.8),
        n_repetitions=1, base_seed=3,
    )
    build_zoo([ZooSpec("cifar", "resnet20", "wt", 0)], scale, jobs=1)
    study = corruption_potential_experiment.__wrapped__  # bypass the memo

    infer_engine._TEMPLATES.clear()
    path = observe.configure(dir=tmp_path / "obs")
    try:
        shared = study("cifar", "resnet20", "wt", scale, CORRUPTIONS, jobs=1)
    finally:
        observe.shutdown()
    report = load_report(path)
    cells = 2 + len(CORRUPTIONS)  # nominal, shifted, corruptions
    assert report.span_count("infer.compile") == 1, report.inference
    assert report.counters.get("infer.plan_shared") == cells - 1, report.inference
    assert "infer.share_rejected" not in report.event_counts
    assert "infer.fallback" not in report.event_counts

    # The reference: every cell compiles its own plan from scratch (each
    # cell builds its model right before evaluating it).
    make_model = corruption_study.make_model

    def make_cold_model(*args):
        infer_engine._TEMPLATES.clear()
        return make_model(*args)

    monkeypatch.setattr(corruption_study, "make_model", make_cold_model)
    path = observe.configure(dir=tmp_path / "obs-cold")
    try:
        cold = study("cifar", "resnet20", "wt", scale, CORRUPTIONS, jobs=1)
    finally:
        observe.shutdown()
    report = load_report(path)
    assert report.span_count("infer.compile") == cells, report.inference
    assert "infer.plan_shared" not in report.counters

    assert shared.distributions == cold.distributions
    for name in shared.distributions:
        [got], [want] = shared.curves[name], cold.curves[name]
        np.testing.assert_array_equal(got.errors, want.errors)
        assert got.parent_error == want.parent_error
    np.testing.assert_array_equal(shared.potentials, cold.potentials)
