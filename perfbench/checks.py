"""Output checks: each returns a list of problems, empty when the output is right.

Every check is one operation of its workload; a check with problems is a
failed operation and makes the run incorrect.  They take the program's
outputs as plain arguments so the benchmark's tests can hand them a
deliberately corrupted output and watch them fail.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def ft_granularity(model) -> float:
    """Largest jump in weight prune ratio one step of FT's knob can make.

    FT prunes the same fraction of input channels in every structured
    layer, rounding per layer; layers with equal input width round at the
    same knob value and so flip together.  (ResNet widths are powers of
    two apart, so different widths never round at the same knob value.)
    """
    from repro.pruning.mask import structured_prunable_layers, total_prunable_weights
    from repro.pruning.structured import channel_weight_cost

    by_width: dict[int, int] = defaultdict(int)
    for _, layer in structured_prunable_layers(model):
        by_width[layer.in_channels] += channel_weight_cost(layer)
    return max(by_width.values()) / total_prunable_weights(model)


def check_ratios(achieved, targets, granularity: float) -> list[str]:
    """FT reaches each target from above, overshooting by at most one step."""
    achieved = np.asarray(achieved, dtype=float)
    targets = np.asarray(sorted(targets), dtype=float)
    if achieved.shape != targets.shape:
        return [f"{achieved.size} checkpoints for {targets.size} targets"]
    return [
        f"checkpoint {i}: achieved ratio {a:.4f} is not within "
        f"[{t:.4f}, {t + granularity:.4f}]"
        for i, (a, t) in enumerate(zip(achieved, targets))
        if not t <= a <= t + granularity
    ]


def check_parent_error(parent_errors, num_classes: int) -> list[str]:
    """The trained parent must beat chance."""
    chance = 1.0 - 1.0 / num_classes
    return [
        f"parent {i}: test error {e:.4f} is not below chance {chance:.4f}"
        for i, e in enumerate(np.asarray(parent_errors, dtype=float))
        if not e < chance
    ]


def check_plan_parity(model, inputs: np.ndarray) -> list[str]:
    """The compiled inference plan reproduces the module forward."""
    from repro.verify.oracles import oracle_plan_parity

    return [str(r) for r in oracle_plan_parity(model, inputs).failures]


def check_nominal_matches_artifact(curve, run) -> list[str]:
    """A study's nominal-distribution errors are the errors the run stored."""
    problems = []
    if not np.array_equal(np.asarray(curve.errors), run.test_errors):
        problems.append(
            f"nominal errors {list(curve.errors)} differ from the stored "
            f"{list(run.test_errors)}"
        )
    if curve.parent_error != run.parent_test_error:
        problems.append(
            f"nominal parent error {curve.parent_error} differs from the stored "
            f"{run.parent_test_error}"
        )
    return problems


def check_served_parity(registry, records, per_model: int, seed: int) -> list[str]:
    """Served logits equal direct engine calls bitwise, sampled per model.

    ``records`` are ``(arrival, images, response)`` triples; sampling each
    model separately guarantees the audit covers every registered model.
    """
    from repro.serve.loadgen import audit_parity

    problems = []
    for key in registry.keys():
        mine = [r for r in records if r[0].mix.key == key]
        audit = audit_parity(registry, mine, n_samples=per_model, seed=seed)
        if audit["sampled"] == 0:
            problems.append(f"{key}: no served response to audit")
        elif not audit["bitwise_equal"]:
            problems.append(
                f"{key}: {audit['mismatches']} of {audit['sampled']} sampled "
                "responses differ from a direct engine call"
            )
    return problems
