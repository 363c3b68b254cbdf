"""The benchmark's workloads (``perfbench/workloads.py``) at their full size
and seed 1: exact-family, the only one that runs ``verify-transform``, and
the two sampled ones, lip-flatness and hom-sweep.  Every operation passes
the workload's own output checks and keeps the bytes pinned here.

The three ``experiment`` pins differ from ``perfbench/reference.json``,
which was recorded while ``spectral_lambda`` stopped a power iteration on
the change in its Rayleigh quotient: with Lanczos and a residual stop
only the report sidecars' ``# lambda`` lines moved, and, for the lipschitz
reports, the ``# predicates`` lines, which now score M-good alone.  Every
other operation keeps the bytes recorded there."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

SHA1 = {
    "experiment": "f25f4b172f8df07d57f1b055f8c72c25cb25c161",
    "verify-transform": "bc5c98c34c743dfdaa69a3103733455c61b76295",
}

SAMPLED_SHA1 = {
    "lip_flatness": {"experiment": "0bf8ce1a3372819f7e420e1003eed8474eb464e2"},
    "hom_sweep": {
        "gen-bipartite": "1904844c4653ceb9e7e061821800d93f262d90db",
        "experiment": "c642caf2d2469089ba61c0b41e63310ca713a82d",
    },
}


def run_workload(name, sha1, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    monkeypatch.chdir(tmp_path)
    ops = getattr(workloads, name)("full", 1)
    assert [op.name for op in ops] == list(sha1)
    for op in ops:
        value = op.run()
        op.check(value)
        assert hashlib.sha1(op.output(value)).hexdigest() == sha1[op.name], op.name


def test_exact_family_outputs_keep_their_bytes(tmp_path, monkeypatch):
    run_workload("exact_family", SHA1, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", list(SAMPLED_SHA1))
def test_sampled_outputs_keep_their_bytes(name, tmp_path, monkeypatch):
    run_workload(name, SAMPLED_SHA1[name], tmp_path, monkeypatch)
