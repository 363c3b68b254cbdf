"""The benchmark's exact-family workload (``perfbench/workloads.py``), the
only one that runs ``verify-transform``, at its full size and seed 1: both
operations pass the workload's own output checks and keep the bytes
recorded in ``perfbench/reference.json``."""

import hashlib
import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

SHA1 = {
    "experiment": "5b3397e05d3e44ac2ccb39c01d0a68f6edc5de76",
    "verify-transform": "bc5c98c34c743dfdaa69a3103733455c61b76295",
}


def test_exact_family_outputs_keep_their_bytes(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    monkeypatch.chdir(tmp_path)
    ops = workloads.exact_family("full", 1)
    assert [op.name for op in ops] == list(SHA1)
    for op in ops:
        value = op.run()
        op.check(value)
        assert hashlib.sha1(op.output(value)).hexdigest() == SHA1[op.name], op.name
