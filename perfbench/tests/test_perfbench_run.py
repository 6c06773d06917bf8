"""Tiny-size runs of each workload: every declared metric is emitted, with its unit.

Run with ``python3 -m pytest perfbench/tests``.  Each test drives
``run.py`` in a subprocess exactly as a benchmark run does, at
``--size tiny`` so a workload takes seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BENCH, ROOT
from workloads import TARGETS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, out: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", "4", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    if out is not None:
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    head = json.loads(lines[-2])
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "blas", "git_commit",
            "source_digest", "sgemm", "jobs"} <= set(head["host"])
    return json.loads(lines[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload, tmp_path):
    result = run(workload, 0, out=tmp_path)
    assert_metrics(result, SPEC["end_to_end"])
    assert result["failed"] == 0
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    record = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert record["result"] == result
    assert record["detail"]["workload"] == workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(workload):
    result = run(workload, 1)
    assert_metrics(result, SPEC["per_layer"])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["host.sgemm_gflops"] > 0
    # Layer self times, without the grid's and serve's catch-all self time,
    # account for the measured call.
    if workload != "serve_mixed":
        assert values["trace.layer_self_frac"] > 0.9
    if workload == "curve_ft_cold":
        assert values["infer.trainengine.steps"] > 0
        assert values["training.compiled_peak_rss_mb"] > 0
        assert values["pruning.prune_calls"] == len(TARGETS)
    if workload == "study_wt_warm":
        assert values["infer.trainengine.steps"] == 0
        assert values["data.corrupt_s"] > 0
    if workload == "serve_mixed":
        assert values["serve.batches"] > 0
        assert values["infer.engine.compiles"] == 0  # warmed in set-up


def test_refuses_a_directory_without_the_program(tmp_path):
    """With only the benchmark and BENCHMARK.json present, it fails fast."""
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
