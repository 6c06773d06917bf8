"""Composed paper tables.

- :func:`pr_fr_table` — Tables 4/6/8: PR and FR at commensurate accuracy.
- :func:`overparam_table` — Tables 2/9/10 (nominal training) and 12/13
  (robust training): average and minimum prune potential on the train vs
  test distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.analysis.overparam import PotentialSummary, summarize_potentials
from repro.experiments.config import ExperimentScale
from repro.experiments.prune_curves import (
    PruneSummaryRow,
    prune_curve_experiment,
    prune_summary_row,
)
from repro.experiments.corruption_study import corruption_potential_experiment
from repro.experiments.robust_study import robust_potential_experiment
from repro.pruning import available_methods, canonical_spec
from repro.training.robust import default_robust_protocol
from repro.utils.tables import format_table


def resolve_method_names(method_names: Sequence[str] | None) -> list[str]:
    """Canonical spec strings, defaulting to every registered method."""
    if method_names is None:
        return available_methods()
    return [canonical_spec(name) for name in method_names]


def pr_fr_table(
    task_name: str,
    model_names: Sequence[str],
    method_names: Sequence[str] | None = None,
    scale: ExperimentScale = ExperimentScale(),
    *,
    jobs: int | None = None,
    on_error: str = "raise",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
    queue_dir: str | Path | None = None,
) -> tuple[list[PruneSummaryRow], str]:
    """Rows + rendered text of the Table 4/6/8 analog.

    ``method_names=None`` enumerates every registered pruning method; an
    explicit list may use any registry spec strings.
    """
    method_names = resolve_method_names(method_names)
    rows = []
    for model_name in model_names:
        for method_name in method_names:
            result = prune_curve_experiment(
                task_name, model_name, method_name, scale,
                jobs=jobs, on_error=on_error,
                max_retries=max_retries, cell_timeout=cell_timeout,
                queue_dir=queue_dir,
            )
            rows.append(prune_summary_row(result, scale.delta))
    text = format_table(
        ["Model", "Method", "Orig. Err (%)", "ΔErr (%)", "PR (%)", "FR (%)"],
        [
            [
                r.model_name,
                r.method_name.upper(),
                f"{100 * r.orig_error:.2f}",
                f"{100 * r.error_delta:+.2f}",
                f"{100 * r.prune_ratio:.2f}",
                f"{100 * r.flop_reduction:.2f}",
            ]
            for r in rows
        ],
        title=f"PR/FR at commensurate accuracy — {task_name}",
    )
    return rows, text


@dataclass
class OverparamRow:
    """One row of Tables 9/10/12/13."""

    model_name: str
    method_name: str
    train_dist: PotentialSummary
    test_dist: PotentialSummary


def overparam_table(
    task_name: str,
    model_names: Sequence[str],
    method_names: Sequence[str] | None = None,
    scale: ExperimentScale = ExperimentScale(),
    robust: bool = False,
    *,
    jobs: int | None = None,
    on_error: str = "raise",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
    queue_dir: str | Path | None = None,
) -> tuple[list[OverparamRow], str]:
    """Average/minimum prune potential on the train vs test distribution.

    Nominal training (Tables 9/10): train distribution = {nominal test
    data}; test distribution = all corruptions.  Robust training (Tables
    12/13): train distribution = nominal + Table-11 train corruptions; test
    distribution = shifted set + held-out corruptions.

    ``method_names=None`` enumerates every registered pruning method.
    """
    method_names = resolve_method_names(method_names)
    rows = []
    protocol = default_robust_protocol(scale.severity)
    for model_name in model_names:
        for method_name in method_names:
            knobs = dict(
                jobs=jobs, on_error=on_error,
                max_retries=max_retries, cell_timeout=cell_timeout,
                queue_dir=queue_dir,
            )
            if robust:
                result = robust_potential_experiment(
                    task_name, model_name, method_name, scale, protocol, **knobs
                )
                train_matrix = result.train_dist_potentials()
                test_matrix = result.test_dist_potentials()
            else:
                base = corruption_potential_experiment(
                    task_name, model_name, method_name, scale, **knobs
                )
                train_matrix = base.potentials[
                    :, [base.distributions.index("nominal")]
                ]
                corruption_cols = [
                    i
                    for i, name in enumerate(base.distributions)
                    if name not in ("nominal", "shifted")
                ]
                test_matrix = base.potentials[:, corruption_cols]
            rows.append(
                OverparamRow(
                    model_name=model_name,
                    method_name=method_name,
                    train_dist=summarize_potentials(train_matrix),
                    test_dist=summarize_potentials(test_matrix),
                )
            )

    cells = []
    for r in rows:
        avg_train, min_train = r.train_dist.row()
        avg_test, min_test = r.test_dist.row()
        cells.append(
            [r.model_name, r.method_name.upper(), avg_train, avg_test, min_train, min_test]
        )
    regime = "robust" if robust else "nominal"
    text = format_table(
        [
            "Model",
            "Method",
            "Avg PP Train (%)",
            "Avg PP Test (%)",
            "Min PP Train (%)",
            "Min PP Test (%)",
        ],
        cells,
        title=f"Prune potential, train vs test distribution — {task_name} ({regime} training)",
    )
    return rows, text
