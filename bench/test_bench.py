"""Smoke test of the benchmark's quick mode: one small pass per workload,
traced and untraced. Checks the output schema against BENCHMARK.json and the
correctness checks; sets no timing bound.

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_schema_and_checks(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--quick", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    env = report["environment"]
    for key in ("nproc", "cpu_model", "python", "numpy", "blas_thread_vars", "git_commit", "seed"):
        assert key in env
    assert env["seed"] == 3
    if trace and workload == "sweep":
        # pool worker spans are parented to cli.main across threads
        assert set(report["cross_thread_parents"]) == {"cli.main"}
        assert result["metrics"]["solvers.build_hhl_circuit.failed"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_design_record_names_existing_metrics():
    with open(os.path.join(BENCH, "design.json"), encoding="utf-8") as fh:
        design = json.load(fh)
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(design["workloads"]) == set(WORKLOADS)
    for row in design["predictions"]:
        assert set(row["layer_metrics"] + row["moves"]) <= names
        assert set(row["on"] + row["no_change_on"]) <= set(WORKLOADS)
