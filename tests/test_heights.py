import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liphom import (
    PhaseError,
    build_graph,
    enumerate_functions,
    exhaustive_lambda,
    homomorphism,
    lipschitz,
    mcmc_sample_array,
    phase_hom,
    phase_lipschitz,
    validate,
)
from liphom.heights import Phase, phases_hom, phases_lipschitz

from .conftest import (
    brute_force_functions,
    c6,
    hom_far_count,
    k33,
    k4,
    q3,
    reference_phase_hom,
    reference_phase_lipschitz,
)


def test_validate_lipschitz():
    g = k4()
    assert validate(g, lipschitz((0, 1, 1, 0), 0, 1)) == []
    assert validate(g, lipschitz((0, 2, 0, 0), 0, 1))  # gap 2 on edge (0,1)
    assert validate(g, lipschitz((1, 1, 1, 1), 0, 1))  # root not pinned


def test_validate_hom():
    g = k33()
    assert validate(g, homomorphism((0, 0, 0, 1, 1, 1), 0)) == []
    assert validate(g, homomorphism((0, 0, 0, 2, 1, 1), 0))  # gap 2
    # parity: root class must be even
    assert validate(g, homomorphism((0, 0, 1, 1, 1, 1), 0))


def test_zero_function_phase():
    g = k4()
    lam = exhaustive_lambda(g)
    ph = phase_lipschitz(g, lipschitz((0, 0, 0, 0), 0, 1), lam)
    assert (ph.lo, ph.hi) == (0, 0)


def test_phase_antisymmetry_lipschitz():
    g = k4()
    lam = exhaustive_lambda(g)
    for f in enumerate_functions(g, 0, "lipschitz", M=1).functions:
        ph = phase_lipschitz(g, f, lam)
        assert phase_lipschitz(g, f.negate(), lam) == ph.negate()


def test_phase_count_bound_lipschitz():
    for g in (k4(), c6()):
        lam = exhaustive_lambda(g)
        budget = 2 * lam * g.n / g.degree
        for f in enumerate_functions(g, 0, "lipschitz", M=1).functions:
            ph = phase_lipschitz(g, f, lam)
            outside = sum(1 for x in f.values if ph.dist(x) > 0)
            assert outside <= budget


def test_phase_hom_laws():
    for g in (k33(), q3()):
        lam = exhaustive_lambda(g, "bipartite")
        d = g.degree
        n = g.n // 2
        for f in enumerate_functions(g, 0, "hom").functions:
            ph = phase_hom(g, f, lam)
            # parity of the level matches the class index
            assert ph.lo % 2 == ph.class_index % 2
            # count bound within the phase class
            cls = g.bipartition[0] if (0 in g.bipartition[0]) == (ph.class_index == 0) else g.bipartition[1]
            bad = sum(1 for v in cls if f.values[v] != ph.lo)
            assert bad <= 2 * lam * n / d
            # refinement bound (lam < d/3 here)
            assert lam < d / 3
            assert hom_far_count(f, ph) <= 3 * lam * n / d
            # antisymmetry
            nph = phase_hom(g, f.negate(), lam)
            assert (nph.lo, nph.class_index) == (-ph.lo, ph.class_index)


def test_phase_error_on_bad_lambda():
    g = k4()
    f = lipschitz((0, 1, 2, 1), 0, 2)
    # negative budget admits no level at all
    with pytest.raises(PhaseError):
        phase_lipschitz(g, f, -1.0)


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def assert_matches_reference(g, f, lam):
    try:
        want = reference_phase_lipschitz(g, f, lam)
    except PhaseError:
        with pytest.raises(PhaseError):
            phase_lipschitz(g, f, lam)
        return
    assert phase_lipschitz(g, f, lam) == want


@st.composite
def lipschitz_cases(draw):
    n = draw(st.integers(3, 40))
    width = draw(st.sampled_from([3, 60]))  # flat-ish, or steep with a wide range
    values = draw(st.lists(st.integers(-width, width), min_size=n, max_size=n))
    M = draw(st.integers(1, 5))
    lam = draw(st.floats(-0.1, 1.2, allow_nan=False))
    return cycle(n), lipschitz(values, 0, M), lam


@settings(max_examples=600, deadline=None)
@given(lipschitz_cases())
def test_phase_lipschitz_matches_reference(case):
    g, f, lam = case
    # one of f, -f has a negative first nonzero value
    assert_matches_reference(g, f, lam)
    assert_matches_reference(g, f.negate(), lam)


def test_phase_lipschitz_reference_edge_cases():
    g = cycle(6)
    zero = lipschitz((0,) * 6, 0, 2)
    assert phase_lipschitz(g, zero, 0.0) == reference_phase_lipschitz(g, zero, 0.0) == Phase(0, 0)
    spread = lipschitz((0, 5, -5, 10, -10, 20), 0, 1)
    with pytest.raises(PhaseError):
        reference_phase_lipschitz(g, spread, 0.1)
    with pytest.raises(PhaseError):
        phase_lipschitz(g, spread, 0.1)
    # budget >= n: the lowest candidate base qualifies, for either sign
    for f in (spread, spread.negate()):
        assert phase_lipschitz(g, f, 1.0) == reference_phase_lipschitz(g, f, 1.0)


def scalar_phases(g, rows, lam, mode, root, M=None):
    """Row-by-row reference phases: (lo, hi) or (level, class index) lists,
    or the PhaseError the first failing row raises."""
    out = []
    for row in rows:
        try:
            if mode == "lipschitz":
                ph = reference_phase_lipschitz(g, lipschitz(row, root, M), lam)
                out.append((ph.lo, ph.hi))
            else:
                ph = reference_phase_hom(g, homomorphism(row, root), lam)
                out.append((ph.lo, ph.class_index))
        except PhaseError as exc:
            return exc
    return out


def assert_batched_matches_scalar(g, rows, lam, mode, root, M=None):
    want = scalar_phases(g, [tuple(r) for r in rows], lam, mode, root, M)
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), g.n)
    if isinstance(want, PhaseError):
        with pytest.raises(PhaseError):
            batched(g, arr, lam, mode, root, M)
        return
    a, b = batched(g, arr, lam, mode, root, M)
    assert a.dtype == b.dtype == np.int64
    assert list(zip(a.tolist(), b.tolist())) == want


def batched(g, arr, lam, mode, root, M):
    if mode == "lipschitz":
        return phases_lipschitz(g, arr, lam, M)
    return phases_hom(g, arr, lam, root)


@st.composite
def lipschitz_blocks(draw):
    g = draw(st.sampled_from([cycle(5), cycle(12), k4(), q3()]))
    width = draw(st.sampled_from([2, 9]))
    rows = draw(
        st.lists(st.lists(st.integers(-width, width), min_size=g.n, max_size=g.n), min_size=1, max_size=6)
    )
    rows.append([0] * g.n)  # the zero function
    rows += [[-x for x in r] for r in rows]  # negated rows
    M = draw(st.integers(1, 4))
    lam = draw(st.floats(-0.1, 1.1 * g.degree / 2, allow_nan=False))  # up to a budget >= n
    return g, rows, lam, M


@settings(max_examples=300, deadline=None)
@given(lipschitz_blocks())
def test_phases_lipschitz_matches_scalar(case):
    g, rows, lam, M = case
    assert_batched_matches_scalar(g, rows, lam, "lipschitz", 0, M)


@st.composite
def hom_blocks(draw):
    g = draw(st.sampled_from([c6(), k33(), q3()]))
    root = draw(st.integers(0, g.n - 1))
    width = draw(st.sampled_from([2, 6]))
    rows = draw(
        st.lists(st.lists(st.integers(-width, width), min_size=g.n, max_size=g.n), min_size=1, max_size=6)
    )
    rows += [[-x for x in r] for r in rows]
    lam = draw(st.floats(0.0, g.degree / 2, allow_nan=False))
    return g, rows, lam, root


@settings(max_examples=300, deadline=None)
@given(hom_blocks())
def test_phases_hom_matches_scalar(case):
    g, rows, lam, root = case
    assert_batched_matches_scalar(g, rows, lam, "hom", root)


@pytest.mark.parametrize(
    "g, root, mode, M, radius",
    [
        (k4(), 0, "lipschitz", 1, 1),
        (c6(), 2, "lipschitz", 2, 6),
        (q3(), 0, "lipschitz", 1, 3),
        (c6(), 0, "hom", None, 3),
        (q3(), 5, "hom", None, 3),
    ],
)
def test_phases_match_scalar_on_family_and_mcmc_rows(g, root, mode, M, radius):
    family = sorted(brute_force_functions(g, {root: 0}, mode, M, radius))
    mcmc = mcmc_sample_array(g, root, mode, M=M, burnin=50, thin=3, n_samples=200, seed=5)
    lam = exhaustive_lambda(g, "bipartite" if mode == "hom" else "general")
    for rows in (family, mcmc.tolist()):
        for scale in (1.0, 0.5, 3.0):
            assert_batched_matches_scalar(g, rows, lam * scale, mode, root, M)


def test_batched_phase_errors():
    # no window holds all but a negative budget's count of vertices
    g = cycle(6)
    spread = [[0, 5, -5, 10, -10, 20]]
    with pytest.raises(PhaseError, match="no interval"):
        phases_lipschitz(g, np.array(spread), 0.1, 1)
    with pytest.raises(PhaseError, match="no interval"):
        phases_lipschitz(g, np.array([[0] * 6, [0, 1, 0, 1, 0, 1]]), -1.0, 1)
    # the zero row alone has phase {0} whatever the budget
    lo, hi = phases_lipschitz(g, np.zeros((1, 6), dtype=np.int8), -1.0, 1)
    assert (lo.tolist(), hi.tolist()) == ([0], [0])
    # hom: no class has a level within the budget
    h = k33()
    with pytest.raises(PhaseError, match="no \\(class, level\\)"):
        phases_hom(h, np.array([[0, 2, 4, 1, 3, 5]]), 0.0, 0)
    # hom: class 0 is flat, but the other class is far from its level
    lam = 0.4  # budget 0.8 per class, refinement bound 1.2 over all vertices
    far = [0, 0, 0, 3, 3, -3]
    with pytest.raises(PhaseError, match="refinement"):
        reference_phase_hom(h, homomorphism(far, 0), lam)
    with pytest.raises(PhaseError, match="refinement"):
        phases_hom(h, np.array([[0, 0, 0, 1, 1, 1], far]), lam, 0)
