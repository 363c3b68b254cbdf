import math

import pytest

from liphom import (
    certify,
    check_expansion_props,
    exhaustive_lambda,
    gen_random_bipartite_regular,
    gen_random_regular,
    gen_tree,
    goodness,
    spectral_lambda,
)
from liphom import expansion
from liphom.expansion import bi_threshold, edge_count, lipschitz_threshold, resolve_lambda
from liphom.graphs import GraphError

from .conftest import c4, k33, k4, kmm, q3, reference_exhaustive_lambda


def test_edge_count_k4():
    g = k4()
    assert edge_count(g, {0, 1}, {2, 3}) == 4
    assert edge_count(g, {0}, {0}) == 0
    assert edge_count(g, {0, 1}, {0, 1}) == 2  # ordered pairs (0,1) and (1,0)


def test_exhaustive_lambda_k4():
    # the sup is attained at S = T = {v}: |0 - 3/4| / 1
    g = k4()
    assert exhaustive_lambda(g) == reference_exhaustive_lambda(g, "general") == 0.75


def _lambda_cases():
    cases = [(k33(), "bipartite"), (k33(), "general"), (c4(), "bipartite"), (c4(), "general")]
    cases += [(q3(), "bipartite"), (q3(), "general")]
    cases += [(gen_tree(3, 2, glued=True), mode) for mode in ("general", "bipartite")]
    cases += [(gen_random_regular(n, 3, seed), "general") for n in (4, 6, 8, 10, 12) for seed in (0, 1)]
    cases += [(gen_random_regular(n, 4, 2), "general") for n in (7, 9, 11)]
    for m, d in ((3, 2), (4, 3), (5, 2), (6, 3), (8, 3), (10, 4), (12, 3)):
        g = gen_random_bipartite_regular(m, d, m)
        cases.append((g, "bipartite"))
        if 2 * g.n <= 24:
            cases.append((g, "general"))
    return cases


@pytest.mark.parametrize("g, mode", _lambda_cases())
def test_exhaustive_lambda_matches_reference(g, mode):
    # exact equality: every e(S,T) is a small integer, both sides share the
    # float expression, and the extreme T of each S carry the maximum
    assert exhaustive_lambda(g, mode) == reference_exhaustive_lambda(g, mode)


def test_spectral_lambda_k4():
    # second-largest |eigenvalue| of K4 is 1
    assert spectral_lambda(k4()) == pytest.approx(1.0, abs=1e-6)


def test_spectral_lambda_kmm_zero():
    # complete bipartite biadjacency is rank one: second singular value 0
    assert spectral_lambda(k33(), "bipartite") == pytest.approx(0.0, abs=1e-6)
    assert exhaustive_lambda(k33(), "bipartite") == pytest.approx(0.0)


def test_exhaustive_le_spectral_small():
    for seed in range(10):
        g = gen_random_regular(8, 3, seed)
        assert exhaustive_lambda(g) <= spectral_lambda(g) + 1e-9


def test_exhaustive_forced_lower_bounds():
    # general mode: lam >= d/n and lam >= sqrt(d)(1 - d/n)
    for seed in range(5):
        g = gen_random_regular(8, 3, seed)
        lam = exhaustive_lambda(g)
        d, n = 3, 8
        assert lam >= d / n - 1e-12
        assert lam >= math.sqrt(d) * (1 - d / n) - 1e-12
        assert lam >= 0.5


def test_exhaustive_guard():
    g = gen_random_regular(20, 3, 0)
    with pytest.raises(GraphError):
        exhaustive_lambda(g)


def test_goodness_thresholds():
    # d=3, M=1: threshold 3/(64 ln 81) ~ 0.010668
    assert lipschitz_threshold(3, 1) == pytest.approx(3 / (64 * math.log(81)))
    assert bi_threshold(3) == pytest.approx(3 / (300 * math.log(3)))
    assert goodness(3, 0.005, 1) == {"M-good(1)": True, "good-bi": True}
    assert goodness(3, 0.5, 1) == {"M-good(1)": False, "good-bi": False}
    assert goodness(3, 0.0) == {"good-bi": True}


def test_certify_k4():
    rep = certify(k4(), M=1)
    assert rep.d == 3 and rep.n == 4 and rep.mode == "general"
    assert rep.lambda_exhaustive <= rep.lambda_spectral + 1e-9
    assert rep.predicates["M-good(1)"] is False


def test_certify_bipartite():
    rep = certify(k33())
    assert rep.mode == "bipartite" and rep.n == 3
    assert rep.predicates["good-bi"] is True


def test_props_exhaustive_small():
    for g, mode in ((k4(), "general"), (c4(), "bipartite"), (q3(), "bipartite")):
        lam = exhaustive_lambda(g, mode)
        checks = check_expansion_props(g, lam, mode)
        for name, c in checks.items():
            assert c.passed, (name, c.witness)


@pytest.mark.parametrize("g, mode", [(kmm(7), "bipartite"), (gen_random_regular(14, 3, 0), "general")])
def test_props_guard(g, mode, monkeypatch):
    def no_subsets(items):
        raise AssertionError("subsets listed before the size guard")

    monkeypatch.setattr(expansion, "_subset_iter", no_subsets)
    with pytest.raises(GraphError, match="too large"):
        check_expansion_props(g, 1.0, mode)


def test_props_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        check_expansion_props(k4(), 1.0, "bipartitte")


def test_props_lambda_zero_bipartite():
    checks = check_expansion_props(kmm(4), 0.0, "bipartite")
    for name, c in checks.items():
        assert c.passed, (name, c.witness)
    assert "not applicable" in checks["diameter"].note


@pytest.mark.parametrize(
    "g, height_mode, lam_mode", [(k4(), "lipschitz", "general"), (q3(), "hom", "bipartite")]
)
def test_resolve_lambda_matches_direct_calls(g, height_mode, lam_mode):
    spectral = spectral_lambda(g, lam_mode, tol=1e-9) + 1e-9
    assert resolve_lambda(g, height_mode, "spectral") == spectral
    assert resolve_lambda(g, height_mode, "exhaustive") == exhaustive_lambda(g, lam_mode)
    assert resolve_lambda(g, height_mode, "explicit", 0.25) == 0.25


def test_resolve_lambda_rejects_bad_source():
    with pytest.raises(ValueError, match="explicit"):
        resolve_lambda(k4(), "lipschitz", "explicit")
    with pytest.raises(ValueError, match="exhaustiv"):
        resolve_lambda(k4(), "lipschitz", "exhaustiv")
