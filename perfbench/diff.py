"""Compare two result sets: ``python3 perfbench/diff.py BASE CHANGE``.

Each side is a directory of records written by ``run.py --out`` (or the
record files themselves).  For every (workload, metric) pair the command
prints both medians with their quartiles, the spread (quartile distance
over the median, as ``statistics.quantiles(values, n=4)`` gives it) and a
verdict, following the rule the benchmark is held to:

- ``improved``: the change wins at least nine tenths of the pairs (runs
  paired in seed order, ties counting for neither) and the medians differ by
  more than the base's own quartile distance;
- ``worse``: the change's median is worse than the base's by more than
  the metric's bound in ``BENCHMARK.json`` (per-layer metrics have no
  bound: the mirror of the ``improved`` rule);
- ``unresolved``: the run-to-run spread of either side is wider than the
  bound, and not every change run reads better than every base run;
- ``unchanged``: otherwise.

Each workload also gets an ``error_rate`` row: failed over attempted
operations, pooled over its runs.  It is ``worse`` when the change fails a
larger share than the base; every ``improved`` verdict of that workload
then reads ``unresolved``, since work that failed is work not timed.

Exit status is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def group(records: list[dict]) -> dict[tuple[str, str], list[tuple[int, float]]]:
    """(workload, metric) -> [(seed, value), ...] sorted by seed."""
    out: dict[tuple[str, str], list[tuple[int, float]]] = defaultdict(list)
    for record in records:
        detail = record["detail"]
        for name, metric in record["result"]["metrics"].items():
            out[(detail["workload"], name)].append((detail["seed"], metric["value"]))
    return {key: sorted(runs) for key, runs in out.items()}


def error_rates(records: list[dict]) -> dict[str, float]:
    """workload -> failed / attempted, pooled over its records."""
    failed: dict[str, int] = defaultdict(int)
    attempted: dict[str, int] = defaultdict(int)
    for record in records:
        workload = record["detail"]["workload"]
        failed[workload] += record["result"]["failed"]
        attempted[workload] += record["result"]["attempted"]
    return {w: failed[w] / attempted[w] for w in attempted if attempted[w]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base: list, change: list, lower_better: bool, bound: float | None) -> tuple[str, float]:
    """Classify one (workload, metric) pair; runs are paired in seed order."""
    a, b = [v for _, v in base], [v for _, v in change]
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if lower_better else -1.0
    # Positive: the change is worse, as a share of the base median.
    worse_by = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0

    def better(x: float, y: float) -> bool:  # x reads better than y
        return sign * (x - y) < 0

    matched = list(zip(a, b))
    wins = sum(better(y, x) for x, y in matched)
    losses = sum(better(x, y) for x, y in matched)
    gap = abs(qb[1] - qa[1])
    if matched and wins >= 0.9 * len(matched) and gap > qa[2] - qa[0] and better(qb[1], qa[1]):
        return "improved", worse_by
    if bound is None:
        if matched and losses >= 0.9 * len(matched) and gap > qa[2] - qa[0]:
            return "worse", worse_by
        return "unchanged", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if max(spread(a), spread(b)) > bound and not all(better(y, x) for x in a for y in b):
        return "unresolved", worse_by
    return "unchanged", worse_by


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base_records, change_records = load_records(args.base), load_records(args.change)
    base, change = group(base_records), group(change_records)
    base_errors, change_errors = error_rates(base_records), error_rates(change_records)
    failing_more = {
        w for w in set(base_errors) & set(change_errors) if change_errors[w] > base_errors[w]
    }

    header = (
        f"{'workload':<15} {'metric':<38} {'n':>5} {'base median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'spread':>13} {'worse_by':>9} {'bound':>6}  verdict"
    )
    print(header)
    any_worse = False
    for key in sorted(set(base) & set(change)):
        workload, metric = key
        if metric not in better:
            continue
        label, worse_by = verdict(
            base[key], change[key], better[metric] == "lower", bounds.get(metric)
        )
        if label == "improved" and workload in failing_more:
            label = "unresolved"
        any_worse |= label == "worse"
        a, b = [v for _, v in base[key]], [v for _, v in change[key]]
        qa, qb = quartiles(a), quartiles(b)
        bound = bounds.get(metric)
        print(
            f"{workload:<15} {metric:<38} {len(base[key]):>2}/{len(change[key]):<2} "
            f"{qa[1]:>12.5g} [{qa[0]:>9.5g}, {qa[2]:>9.5g}] "
            f"{qb[1]:>12.5g} [{qb[0]:>9.5g}, {qb[2]:>9.5g}] "
            f"{spread(a):>6.3f}/{spread(b):<6.3f} "
            f"{worse_by:>+9.4f} {'-' if bound is None else bound:>6}  {label}"
        )
    for workload in sorted(set(base_errors) & set(change_errors)):
        label = "worse" if workload in failing_more else "unchanged"
        any_worse |= label == "worse"
        print(
            f"{workload:<15} {'error_rate':<38} "
            f"{base_errors[workload]:>12.5g} {change_errors[workload]:>12.5g}  {label}"
        )
    for key in sorted(set(base) ^ set(change)):
        print(f"{key[0]:<15} {key[1]:<38} only in {'base' if key in base else 'change'}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
