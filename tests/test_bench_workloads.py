"""Every operation of the benchmark's workloads (``perfbench/workloads.py``)
runs and passes its own output check at the tiny size: a CLI rule that
rejects one of the benchmark's argument lists fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["lip-flatness", "hom-sweep", "exact-family", "tree-exact"])
def test_workload_operations_run_and_check(tmp_path, monkeypatch, name):
    workloads = load_workloads(monkeypatch)
    monkeypatch.chdir(tmp_path)  # a workload writes its inputs and outputs in the working directory
    for op in workloads.WORKLOADS[name]("tiny", 1):
        value = op.run()
        op.check(value)
        assert isinstance(op.output(value), bytes), op.name
