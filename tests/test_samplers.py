import numpy as np
import pytest

from liphom import (
    CapExceeded,
    GraphError,
    build_graph,
    enumerate_functions,
    gen_tree,
    glauber_step,
    initial_state,
    mcmc_sample,
    mcmc_sample_array,
    validate,
)
from liphom import _kernels
from liphom.samplers import _draw_words, allowed_values, split_chain_diagnostic

from .conftest import brute_force_count, brute_force_functions, c4, k4, q3


def test_enumeration_matches_brute_force_k4():
    g = k4()
    res = enumerate_functions(g, 0, "lipschitz", M=1)
    oracle = brute_force_functions(g, {0: 0}, "lipschitz", 1, radius=3)
    assert {f.values for f in res.functions} == oracle
    assert res.count == len(oracle) == 15


def test_enumeration_matches_brute_force_c4_hom():
    g = c4()
    res = enumerate_functions(g, 0, "hom")
    oracle = brute_force_functions(g, {0: 0}, "hom", 1, radius=4)
    assert {f.values for f in res.functions} == oracle
    assert res.count == 6


def test_enumeration_all_valid():
    g = q3()
    res = enumerate_functions(g, 0, "hom")
    assert res.count == len(set(res.functions))
    for f in res.functions:
        assert validate(g, f) == []


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_functions(k4(), 0, "lipschitz", M=1, cap=10)


def test_allowed_values():
    g = k4()
    assert allowed_values(g, [0, 0, 0, 0], 1, "lipschitz", 1) == [-1, 0, 1]
    g = c4()
    assert allowed_values(g, [0, 1, 0, 1], 1, "hom") == [-1, 1]
    # neighbors of 2 are both at 1: either side is allowed
    assert allowed_values(g, [0, 1, 2, 1], 2, "hom") == [0, 2]
    # neighbors of 1 at 0 and 2: the middle value is forced
    assert allowed_values(g, [0, 1, 2, 1], 1, "hom") == [1]


def test_glauber_step_preserves_validity():
    g = k4()
    state = initial_state(g, 0, "lipschitz", 1, seed=3)
    for _ in range(50):
        state = glauber_step(g, state)
        assert validate(g, state.f) == []
        assert state.f.values[0] == 0


def test_glauber_step_matches_kernel():
    g = c4()
    state = initial_state(g, 0, "hom", None, seed=9)
    for _ in range(25):
        state = glauber_step(g, state)
    arr = mcmc_sample_array(g, 0, "hom", burnin=0, thin=25, n_samples=1, seed=9)
    assert tuple(int(x) for x in arr[0]) == state.f.values


def replay_glauber(g, values, free, M, hom, rnd_v, rnd_x, thin, burnin, n_out):
    """Plain-Python heat-bath replay of a pre-drawn word stream."""
    values = list(values)
    rows = []
    for step, (wv, wx) in enumerate(zip(rnd_v.tolist(), rnd_x.tolist())):
        v = free[wv % len(free)]
        nbr = [values[w] for w in g.adj[v]]
        mn, mx = min(nbr), max(nbr)
        if hom:
            values[v] = mn + 1 if mx - mn == 2 else mn + (1 if wx % 2 else -1)
        else:
            values[v] = mx - M + wx % (mn + M - (mx - M) + 1)
        post = step + 1 - burnin
        if post > 0 and post % thin == 0 and len(rows) < n_out:
            rows.append(tuple(values))
    return rows


@pytest.mark.parametrize(
    "g, mode, M, n_steps, thin, burnin, n_out",
    [
        (k4(), "lipschitz", 2, 300, 7, 20, 25),  # more rows than room: stops at n_out
        (q3(), "hom", 1, 400, 3, 0, 200),  # room to spare
        # several word chunks; burn-in and recorded steps off chunk boundaries
        (q3(), "lipschitz", 2, 2 * _kernels.CHUNK_STEPS + 777, 13, 1001, 1000),
    ],
)
def test_glauber_run_rows_match_python_replay(g, mode, M, n_steps, thin, burnin, n_out):
    hom = mode == "hom"
    start = initial_state(g, 0, mode, None if hom else M, seed=11).f.values
    free = [v for v in range(g.n) if v != 0]
    rnd_v, rnd_x = _draw_words(11, 0, 0, n_steps)
    want = replay_glauber(g, start, free, M, hom, rnd_v, rnd_x, thin, burnin, n_out)
    out = np.full((n_out, g.n), 99, dtype=np.int64)
    n_rec = _kernels.glauber_run(
        g.adj, np.array(start, dtype=np.int64), free, M, hom, rnd_v, rnd_x, thin, burnin, out,
    )
    assert n_rec == len(want) == min(n_out, (n_steps - burnin) // thin)
    assert [tuple(r) for r in out[:n_rec].tolist()] == want


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize(
    "g, match",
    [
        (build_graph(8, K4_EDGES + [(u + 4, v + 4) for u, v in K4_EDGES]), "connected"),
        (build_graph(5, K4_EDGES), "neighbor"),  # vertex 4 is isolated
    ],
)
def test_mcmc_rejects_bad_graph_at_entry(g, match):
    with pytest.raises(GraphError, match=match):
        mcmc_sample_array(g, 0, "lipschitz", M=1, burnin=10, thin=1, n_samples=5)


def test_mcmc_determinism():
    g = k4()
    a = mcmc_sample_array(g, 0, "lipschitz", M=1, burnin=100, thin=3, n_samples=50, seed=5)
    b = mcmc_sample_array(g, 0, "lipschitz", M=1, burnin=100, thin=3, n_samples=50, seed=5)
    assert np.array_equal(a, b)
    c = mcmc_sample_array(g, 0, "lipschitz", M=1, burnin=100, thin=3, n_samples=50, seed=6)
    assert not np.array_equal(a, c)


def test_mcmc_samples_are_valid():
    g = q3()
    for f in mcmc_sample(g, 0, "hom", burnin=200, thin=5, n_samples=30, seed=1):
        assert validate(g, f) == []


def test_mcmc_tv_small_instance():
    g = c4()
    fam = enumerate_functions(g, 0, "hom")
    arr = mcmc_sample_array(g, 0, "hom", burnin=2000, thin=5, n_samples=20_000, seed=2)
    counts = {f.values: 0 for f in fam.functions}
    for row in arr:
        counts[tuple(int(x) for x in row)] += 1
    tv = 0.5 * sum(abs(c / len(arr) - 1 / fam.count) for c in counts.values())
    assert tv <= 0.02


def test_detailed_balance_symmetry():
    # two states differing at one vertex have equal transition probability
    g = k4()
    fam = enumerate_functions(g, 0, "lipschitz", M=1)
    states = [f.values for f in fam.functions]
    for a in states:
        for b in states:
            diff = [v for v in range(4) if a[v] != b[v]]
            if len(diff) != 1:
                continue
            v = diff[0]
            pa = 1 / len(allowed_values(g, a, v, "lipschitz", 1))
            pb = 1 / len(allowed_values(g, b, v, "lipschitz", 1))
            assert pa == pb  # uniform resampling on a shared allowed set


def test_split_chain_diagnostic():
    g = k4()
    arr = mcmc_sample_array(g, 0, "lipschitz", M=1, burnin=1000, thin=5, n_samples=4000, seed=0)
    assert split_chain_diagnostic(arr, 1) < 0.1


def test_grounded_tree_counts_via_glued_enumeration():
    from liphom import tree_dp

    for d, h in ((3, 1), (3, 2), (4, 2)):
        gt = gen_tree(d, h, glued=True)
        res = enumerate_functions(gt, gt.glue, "lipschitz", M=1)
        assert res.count == tree_dp(d, h, "lipschitz", 1).total


def test_grounded_brute_force_oracle():
    # independent oracle on the un-glued tree with every leaf pinned to zero
    from liphom import tree_dp

    for d, h, expected in ((3, 2, 45), (4, 2, 115)):
        t = gen_tree(d, h)
        pins = {v: 0 for v in t.leaves}
        count = brute_force_count(t, pins, "lipschitz", 1, radius=h)
        assert count == expected == tree_dp(d, h, "lipschitz", 1).total
