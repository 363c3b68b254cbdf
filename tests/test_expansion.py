import math

import numpy as np
import pytest

from liphom import (
    build_graph,
    certify,
    check_expansion_props,
    exhaustive_lambda,
    gen_random_bipartite_regular,
    gen_random_regular,
    gen_tree,
    goodness,
    spectral_lambda,
)
from liphom import CapExceeded, expansion
from liphom.expansion import SPECTRAL_TOL, bi_threshold, lipschitz_threshold, resolve_lambda
from liphom.graphs import GraphError

from .conftest import (
    c4,
    c6,
    dense_spectral_lambda,
    edge_count,
    k33,
    k4,
    kmm,
    q3,
    reference_check_expansion_props,
    reference_exhaustive_lambda,
    reference_spectral_lambda,
)


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


def _complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _spectral_cases():
    # d - 1 below 8, in 8..128 and (K_140, K_{140,140}) above 128
    cases = [
        pytest.param(lambda d=d, s=s: gen_random_regular(2 if d == 1 else 64, d, s), "general",
                     id=f"regular-d{d}-s{s}")
        for d in range(1, 21)
        for s in (0, 1)
    ]
    cases.append(pytest.param(lambda: _complete(140), "general", id="K140"))
    cases += [
        pytest.param(lambda d=d: gen_random_bipartite_regular(256, d, 0), "bipartite",
                     id=f"bipartite-d{d}")
        for d in range(1, 13)
    ]
    cases += [
        pytest.param(lambda m=m: kmm(m), mode, id=f"K{m},{m}-{mode}")
        for m in (1, 5, 140)
        for mode in ("general", "bipartite")
    ]
    return cases


def _within_tol(lam, exact):
    return abs(lam - exact) <= SPECTRAL_TOL * max(1.0, exact)


@pytest.mark.parametrize("graph, mode", _spectral_cases())
def test_spectral_lambda_bits_match_reduceat_reference(graph, mode):
    # The name and case ids are those of the bit-for-bit comparison with the
    # reduceat power iteration, which a residual-stopped Lanczos cannot keep;
    # the oracle is now the dense eigenvalue, within SPECTRAL_TOL.
    g = graph()
    assert _within_tol(spectral_lambda(g, mode), dense_spectral_lambda(g, mode))


GOLDEN = [
    (lambda: gen_random_regular(512, 6, 0), "general", "0x1.1ba9374f3ac38p+2"),
    (lambda: gen_random_regular(512, 6, 1), "general", "0x1.198b5ea7ca17fp+2"),
    (lambda: gen_random_regular(512, 6, 2), "general", "0x1.1f34ae0872078p+2"),
    (lambda: gen_random_bipartite_regular(256, 8, 0), "bipartite", "0x1.4a8f18ca2439ep+2"),
]
GOLDEN_IDS = ["regular512-d6-s0", "regular512-d6-s1", "regular512-d6-s2", "bipartite256-d8-s0"]


@pytest.mark.parametrize("graph, mode, bits", GOLDEN, ids=GOLDEN_IDS)
def test_spectral_lambda_golden_bits(graph, mode, bits):
    # pins determinism: any change to the products' summation order, the
    # recurrence or the stopping rule moves these
    g = graph()
    assert spectral_lambda(g, mode).hex() == bits
    assert _within_tol(float.fromhex(bits), dense_spectral_lambda(g, mode))


def test_old_stopping_rule_was_not_a_bound():
    # the power iteration stopped on the change in its Rayleigh quotient:
    # its value plus SPECTRAL_TOL falls below the dense lambda
    refuted = []
    for graph, mode, _ in GOLDEN:
        g = graph()
        exact = dense_spectral_lambda(g, mode)
        if reference_spectral_lambda(g, mode) + SPECTRAL_TOL < exact:
            refuted.append((g, mode, exact))
    assert refuted
    for g, mode, exact in refuted:
        assert _within_tol(spectral_lambda(g, mode), exact)


def test_spectral_lambda_raises_at_the_step_cap(monkeypatch):
    # one residual check at step 20, which a 512-vertex graph does not pass
    monkeypatch.setattr(expansion, "SPECTRAL_MAX_ITER", 20)
    with pytest.raises(CapExceeded, match="n=512 within SPECTRAL_MAX_ITER=20 Lanczos steps"):
        spectral_lambda(gen_random_regular(512, 6, 0))


def test_spectral_lambda_calls_no_dense_eigensolver(monkeypatch):
    # a first LAPACK eigen or SVD call raises peak RSS by 1-2.5 MB
    def refuse(*args, **kwargs):
        raise AssertionError("spectral_lambda called a dense eigen or SVD routine")

    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert spectral_lambda(gen_random_regular(512, 8, 0)) > 0
    assert spectral_lambda(gen_random_bipartite_regular(256, 8, 0), "bipartite") > 0


def test_spectral_lambda_rejects_irregular_rows():
    # the glued tree records degree d, but its glue vertex has d(d-1)^(h-1)
    # neighbours: no (d, n) table holds them
    g = gen_tree(3, 4, glued=True)
    with pytest.raises(GraphError, match=f"vertex {g.glue} has degree 24, not the graph's d=3"):
        spectral_lambda(g)
    with pytest.raises(GraphError, match=f"vertex {g.glue} has degree 24"):
        certify(g)


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


def test_certify_m_good_reads_the_general_lambda():
    # Lipschitz functions take lambda over all of V, also on a bipartite
    # graph: K_{6,6} has bipartite lambda 0 but is not M-good
    g = kmm(6)
    rep = certify(g, M=1)
    assert rep.mode == "bipartite" and rep.lambda_spectral == 0.0
    lam_lip = resolve_lambda(g, "lipschitz", "spectral")
    assert rep.predicates == {
        "M-good(1)": goodness(6, lam_lip, 1)["M-good(1)"],
        "good-bi": goodness(6, resolve_lambda(g, "hom", "spectral"))["good-bi"],
    }
    assert rep.predicates["M-good(1)"] is False
    assert rep.predicates["good-bi"] is True


def test_props_exhaustive_small():
    for g, mode in ((k4(), "general"), (c4(), "bipartite"), (q3(), "bipartite")):
        lam = exhaustive_lambda(g, mode)
        checks = check_expansion_props(g, lam, mode)
        for name, c in checks.items():
            assert c.passed, (name, c.witness)


@pytest.mark.parametrize("g, mode", [(kmm(7), "bipartite"), (gen_random_regular(14, 3, 0), "general")])
def test_props_guard(g, mode, monkeypatch):
    def no_subsets(c, op=None):
        raise AssertionError("subsets listed before the size guard")

    monkeypatch.setattr(expansion, "_all_subset_sums", no_subsets)
    with pytest.raises(GraphError, match="too large"):
        check_expansion_props(g, 1.0, mode)


def _props_cases():
    cases = [(k4(), "general"), (kmm(5), "bipartite"), (gen_tree(3, 2, glued=True), "general")]
    cases += [(g, mode) for g in (c4(), c6(), k33(), gen_tree(3, 2, glued=True)) for mode in ("general", "bipartite")]
    cases += [(g, "bipartite") for g in (q3(), kmm(4))]
    cases += [(gen_random_regular(6, 3, seed), "general") for seed in (0, 1, 2)]
    cases += [(gen_random_regular(n, 4, 2), "general") for n in (5, 7)]
    cases += [(gen_random_bipartite_regular(m, d, m), "bipartite") for m, d in ((3, 2), (4, 2), (5, 2), (6, 3))]
    # both fail volume growth at small lambda; in two disjoint C4 no ball
    # reaches the other component
    c8 = build_graph(8, [(i, (i + 1) % 8) for i in range(8)])
    two_c4 = build_graph(8, [(s + i, s + (i + 1) % 4) for s in (0, 4) for i in range(4)])
    cases += [(c8, "general"), (two_c4, "general")]
    return cases


@pytest.mark.parametrize("g, mode", _props_cases())
def test_props_match_reference(g, mode):
    # every check's count, outcome, first witness and note, at lambda values
    # that pass, fail and are out of every corollary's range
    lam = exhaustive_lambda(g, mode)
    for x in (lam, lam / 2, lam / 4, 0.1, 0.0, 2 * lam):
        got = check_expansion_props(g, x, mode)
        want = reference_check_expansion_props(g, x, mode)
        assert list(got) == list(want)
        for name, c in want.items():
            assert (got[name].checked, got[name].passed, got[name].witness, got[name].note) == (
                c.checked, c.passed, c.witness, c.note
            ), (x, name)


def test_props_boundary_counts_outer_vertices_only():
    # C12 at d^2 / (4 lam^2) = 2: three consecutive vertices have two outer
    # neighbours, below min(n/4, (2 - 1) * 3) = 3, while N(A) has five
    g = build_graph(12, [(i, (i + 1) % 12) for i in range(12)])
    boundary = check_expansion_props(g, math.sqrt(0.5))["boundary"]
    assert not boundary.passed and boundary.witness == [0, 1, 2]


@pytest.mark.parametrize(
    "fn",
    [exhaustive_lambda, spectral_lambda, lambda g, mode: check_expansion_props(g, 1.0, mode)],
    ids=["exhaustive_lambda", "spectral_lambda", "check_expansion_props"],
)
def test_lambda_mode_errors(fn):
    with pytest.raises(ValueError, match="unknown mode 'bipartitte'"):
        fn(k4(), "bipartitte")
    with pytest.raises(GraphError, match="bipartite mode requires a bipartition"):
        fn(k4(), "bipartite")


def test_props_lambda_zero_bipartite():
    checks = check_expansion_props(kmm(4), 0.0, "bipartite")
    for name, c in checks.items():
        assert c.passed, (name, c.witness)
    assert "not applicable" in checks["diameter"].note


@pytest.mark.parametrize(
    "g, height_mode, lam_mode", [(k4(), "lipschitz", "general"), (q3(), "hom", "bipartite")]
)
def test_resolve_lambda_matches_direct_calls(g, height_mode, lam_mode):
    spectral = spectral_lambda(g, lam_mode) + SPECTRAL_TOL
    assert resolve_lambda(g, height_mode, "spectral") == spectral
    assert resolve_lambda(g, height_mode, "exhaustive") == exhaustive_lambda(g, lam_mode)
    assert resolve_lambda(g, height_mode, "explicit", 0.25) == 0.25


def test_resolve_lambda_rejects_bad_source():
    with pytest.raises(ValueError, match="explicit"):
        resolve_lambda(k4(), "lipschitz", "explicit")
    with pytest.raises(ValueError, match="exhaustiv"):
        resolve_lambda(k4(), "lipschitz", "exhaustiv")
