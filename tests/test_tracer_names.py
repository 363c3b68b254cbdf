"""The benchmark's tracer looks library functions up by module and name
(``perfbench/tracing.py``): every name it wraps must exist, and installing
and removing its wrappers must leave every module as it was."""

import importlib
import importlib.util
import sys
from pathlib import Path

import liphom
from liphom import ExperimentConfig, _kernels, enumerate_functions, exhaustive_lambda, phase_lipschitz, tree_dp, tree_sample
from liphom.treedp import TreeDP

from .conftest import k4

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def liphom_attributes() -> dict:
    """(module or class, name) -> value for every liphom module and TreeDP."""
    out = {}
    for m_name, m in list(sys.modules.items()):
        if m_name == "liphom" or m_name.startswith("liphom."):
            out.update(((m_name, key), val) for key, val in vars(m).items())
    out.update((("TreeDP", key), val) for key, val in vars(TreeDP).items())
    return out


def test_every_traced_name_resolves():
    tracing = load_tracing()
    assert {"treedp.tail_probability", "treedp.log_tail_probability"} <= set(tracing.TRACED)
    for name, (mod_name, attr) in tracing.TRACED.items():
        obj = importlib.import_module(mod_name)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{name}: {mod_name}.{attr} is missing"
            obj = getattr(obj, part)
        assert callable(obj), name
    # the benchmark's worker records it in its environment block
    assert isinstance(_kernels.NUMBA_ENABLED, bool)


def test_tracer_install_and_uninstall_restore_every_attribute():
    tracing = load_tracing()
    before = liphom_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert liphom.phase_lipschitz is not phase_lipschitz
        assert liphom.heights.phase_lipschitz is not phase_lipschitz
        # the wrappers take the library's signatures, and the counters read
        # the results
        g = k4()
        fam = liphom.enumerate_functions(g, 0, "lipschitz", M=1)
        liphom.heights.phase_lipschitz(g, fam.rows[1], exhaustive_lambda(g), 1)
        dp = liphom.treedp.tree_dp(3, 2)
        liphom.cli.tree_sample(dp, 0)
        dp.tail_probability(0, 0)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    for name in ("samplers.enumerate_functions", "heights.phase_lipschitz", "treedp.tree_dp",
                 "treedp.tree_sample", "treedp.tail_probability"):
        assert name in names
    assert [kv for _, kv in tracer.counts] == [{"functions": 15}]
    after = liphom_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())
    assert liphom.enumerate_functions is enumerate_functions
    assert (liphom.tree_dp, liphom.tree_sample) == (tree_dp, tree_sample)


def test_mcmc_counter_reads_the_call_keywords():
    # the counter takes burnin, thin and n_samples from the call's keywords
    # (its defaults otherwise): a caller passing them by position would
    # miscount the steps.  kind = max reaches the sampler by the same call
    tracing = load_tracing()
    for kind in ("deviation", "max"):
        cfg = ExperimentConfig(kind=kind, graph_type="regular", n=8, d=3, sampler="mcmc",
                               burnin=7, thin=3, n_samples=5, lambda_source="exhaustive", t_max=1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            liphom.run_experiment(cfg)
        finally:
            tracer.uninstall()
        counts = [kv for idx, kv in tracer.counts if tracer.spans[idx][0] == "samplers.mcmc_sample_array"]
        assert counts == [{"steps": 7 + 3 * 5, "rows": 5, "bytes": 16 * 22 + 8 * 8 * 5}], kind
