import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liphom import (
    PhaseError,
    build_graph,
    enumerate_functions,
    exhaustive_lambda,
    mcmc_sample_array,
    phase_hom,
    phase_lipschitz,
    validate,
)
from liphom.heights import phases_hom, phases_lipschitz

from .conftest import (
    FAMILY_ERRORS,
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
    assert validate(g, (0, 1, 1, 0), 0, "lipschitz", 1) == []
    assert validate(g, (0, 2, 0, 0), 0, "lipschitz", 1)  # gap 2 on edge (0,1)
    assert validate(g, (1, 1, 1, 1), 0, "lipschitz", 1)  # root not pinned


def test_validate_hom():
    g = k33()
    assert validate(g, (0, 0, 0, 1, 1, 1), 0, "hom") == []
    assert validate(g, (0, 0, 0, 2, 1, 1), 0, "hom")  # gap 2
    # parity: root class must be even
    assert validate(g, (0, 0, 1, 1, 1, 1), 0, "hom")


@pytest.mark.parametrize("mode, M, message", FAMILY_ERRORS)
def test_validate_rejects_mode_and_slope(mode, M, message):
    # checked before the values: a valid row does not get past them
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate(k4(), (0, 0, 0, 0), 0, mode, M)


def test_zero_function_phase():
    g = k4()
    lam = exhaustive_lambda(g)
    assert phase_lipschitz(g, (0, 0, 0, 0), lam, 1) == (0, 0)


def test_phase_antisymmetry_lipschitz():
    g = k4()
    lam = exhaustive_lambda(g)
    for row in enumerate_functions(g, 0, "lipschitz", M=1).rows:
        lo, hi = phase_lipschitz(g, row, lam, 1)
        assert phase_lipschitz(g, -row, lam, 1) == (-hi, -lo)


def test_phase_count_bound_lipschitz():
    for g in (k4(), c6()):
        lam = exhaustive_lambda(g)
        budget = 2 * lam * g.n / g.degree
        for row in enumerate_functions(g, 0, "lipschitz", M=1).rows.tolist():
            lo, hi = phase_lipschitz(g, row, lam, 1)
            outside = sum(1 for x in row if not lo <= x <= hi)
            assert outside <= budget


def test_phase_hom_laws():
    for g in (k33(), q3()):
        lam = exhaustive_lambda(g, "bipartite")
        d = g.degree
        n = g.n // 2
        for row in enumerate_functions(g, 0, "hom").rows.tolist():
            level, class_index = phase_hom(g, row, lam, 0)
            # parity of the level matches the class index
            assert level % 2 == class_index % 2
            # count bound within the phase class
            cls = g.bipartition[0] if (0 in g.bipartition[0]) == (class_index == 0) else g.bipartition[1]
            bad = sum(1 for v in cls if row[v] != level)
            assert bad <= 2 * lam * n / d
            # refinement bound (lam < d/3 here)
            assert lam < d / 3
            assert hom_far_count(row, level) <= 3 * lam * n / d
            # antisymmetry
            assert phase_hom(g, [-x for x in row], lam, 0) == (-level, class_index)


def test_phase_error_on_bad_lambda():
    g = k4()
    # negative budget admits no level at all
    with pytest.raises(PhaseError):
        phase_lipschitz(g, (0, 1, 2, 1), -1.0, 2)


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def assert_matches_reference(g, values, lam, M):
    try:
        want = reference_phase_lipschitz(g, values, lam, M)
    except PhaseError:
        with pytest.raises(PhaseError):
            phase_lipschitz(g, values, lam, M)
        return
    assert phase_lipschitz(g, values, lam, M) == want


@st.composite
def lipschitz_cases(draw):
    n = draw(st.integers(3, 40))
    width = draw(st.sampled_from([3, 60]))  # flat-ish, or steep with a wide range
    values = draw(st.lists(st.integers(-width, width), min_size=n, max_size=n))
    M = draw(st.integers(1, 5))
    lam = draw(st.floats(-0.1, 1.2, allow_nan=False))
    return cycle(n), values, M, lam


@settings(max_examples=600, deadline=None)
@given(lipschitz_cases())
def test_phase_lipschitz_matches_reference(case):
    g, values, M, lam = case
    # one of f, -f has a negative first nonzero value
    assert_matches_reference(g, values, lam, M)
    assert_matches_reference(g, [-x for x in values], lam, M)


def test_phase_lipschitz_reference_edge_cases():
    g = cycle(6)
    zero = (0,) * 6
    assert phase_lipschitz(g, zero, 0.0, 2) == reference_phase_lipschitz(g, zero, 0.0, 2) == (0, 0)
    spread = (0, 5, -5, 10, -10, 20)
    with pytest.raises(PhaseError):
        reference_phase_lipschitz(g, spread, 0.1, 1)
    with pytest.raises(PhaseError):
        phase_lipschitz(g, spread, 0.1, 1)
    # budget >= n: the lowest candidate base qualifies, for either sign
    for values in (spread, tuple(-x for x in spread)):
        assert phase_lipschitz(g, values, 1.0, 1) == reference_phase_lipschitz(g, values, 1.0, 1)


def scalar_phases(g, rows, lam, mode, root, M=None):
    """Row-by-row reference phases: (lo, hi) or (level, class index) lists,
    or the PhaseError the first failing row raises."""
    out = []
    for row in rows:
        try:
            if mode == "lipschitz":
                out.append(reference_phase_lipschitz(g, row, lam, M))
            else:
                out.append(reference_phase_hom(g, row, lam, root))
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
    lam = draw(st.floats(0.0, 1.1 * g.degree / 2, allow_nan=False))  # up to a budget >= the class size
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
        reference_phase_hom(h, far, lam, 0)
    with pytest.raises(PhaseError, match="refinement"):
        phases_hom(h, np.array([[0, 0, 0, 1, 1, 1], far]), lam, 0)
    # hom: a level at the largest |value|, so that the refinement window
    # level-1..level+1 meets the edge of the value range; no vertex lies
    # outside it in the first row (and its negation), two in the last
    edge = np.array([[2, 2, 2, 1, 1, 1], [-2, -2, -2, -1, -1, -1]])
    assert [x.tolist() for x in phases_hom(h, edge, lam, 0)] == [[2, -2], [0, 0]]
    with pytest.raises(PhaseError, match="refinement bound violated: 2 >"):
        phases_hom(h, np.array([[2, 2, 2, -1, -1, 1]]), lam, 0)
