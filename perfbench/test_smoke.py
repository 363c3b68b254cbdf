"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 -m pytest perfbench/test_smoke.py

Every workload must print every metric named in BENCHMARK.json with its
unit, pass its checks, and, traced, have per-layer self times that add up
to no more than the traced report_s.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# per-layer metrics that are self times; they cover disjoint parts of a pass
SELF_TIMES = [
    m["name"]
    for m in BENCH["per_layer"]
    if m["unit"] == "s" and not m["name"].startswith("trace.")
]


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0
    assert res["attempted"] >= 1
    return res


def units(metrics) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(run(workload, 0))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units(BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = result(run(workload, 1))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units(BENCH["per_layer"])
    own = sum(metrics[k]["value"] for k in SELF_TIMES)
    assert 0 < own <= metrics["trace.report_s"]["value"]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
