from operator import itemgetter

import numpy as np
import pytest

from liphom import (
    CapExceeded,
    GraphError,
    build_graph,
    enumerate_functions,
    gen_random_bipartite_regular,
    gen_random_regular,
    gen_tree,
    mcmc_sample_array,
    validate,
)
from liphom import _kernels
from liphom.graphs import distances_from, neighbour_table
from liphom.samplers import _draw_words, _value_dtype

from .conftest import (
    FAMILY_ERRORS,
    allowed_values,
    brute_force_count,
    brute_force_functions,
    c4,
    c6,
    k33,
    k4,
    q3,
)


def test_enumeration_matches_brute_force_k4():
    g = k4()
    res = enumerate_functions(g, 0, "lipschitz", M=1)
    oracle = brute_force_functions(g, {0: 0}, "lipschitz", 1, radius=3)
    assert set(map(tuple, res.rows.tolist())) == oracle
    assert res.count == len(oracle) == 15


def test_enumeration_matches_brute_force_c4_hom():
    g = c4()
    res = enumerate_functions(g, 0, "hom")
    oracle = brute_force_functions(g, {0: 0}, "hom", 1, radius=4)
    assert set(map(tuple, res.rows.tolist())) == oracle
    assert res.count == 6


def test_enumeration_all_valid():
    g = q3()
    res = enumerate_functions(g, 0, "hom")
    rows = res.rows.tolist()
    assert res.count == len(set(map(tuple, rows)))
    for row in rows:
        assert validate(g, row, 0, "hom") == []


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_functions(k4(), 0, "lipschitz", M=1, cap=10)


@pytest.mark.parametrize("mode, M, message", FAMILY_ERRORS)
def test_samplers_reject_bad_family(mode, M, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        enumerate_functions(k4(), 0, mode, M=M)
    with pytest.raises(ValueError, match=f"^{message}$"):
        mcmc_sample_array(k4(), 0, mode, M=M, burnin=1, thin=1, n_samples=1)


def k3():
    return build_graph(3, [(0, 1), (0, 2), (1, 2)])


# (graph, root, mode, M, brute-force radius, dtype of the rows)
ENUMERATION_CASES = [
    (k4(), 0, "lipschitz", 1, 1, np.int8),
    (k4(), 2, "lipschitz", 2, 2, np.int8),
    (c6(), 0, "lipschitz", 1, 3, np.int8),
    (c6(), 3, "lipschitz", 2, 6, np.int8),
    (k33(), 0, "lipschitz", 2, 4, np.int8),
    (c4(), 0, "hom", None, 2, np.int8),
    (c6(), 1, "hom", None, 3, np.int8),
    (k33(), 4, "hom", None, 2, np.int8),
    (q3(), 0, "hom", None, 3, np.int8),
    # dtype edges: slope * max(dist) = 127 still fits int8, 128 does not;
    # a window [-M, M] spans 2M > 127 values
    (k3(), 0, "lipschitz", 127, 127, np.int8),
    (k3(), 1, "lipschitz", 128, 128, np.int16),
]


@pytest.mark.parametrize("g, v0, mode, M, radius, dtype", ENUMERATION_CASES)
def test_enumeration_rows_match_brute_force_in_dfs_order(g, v0, mode, M, radius, dtype):
    res = enumerate_functions(g, v0, mode, M=M)
    assert res.rows.dtype == dtype and res.rows.shape == (res.count, g.n)
    rows = [tuple(r) for r in res.rows.tolist()]
    assert set(rows) == brute_force_functions(g, {v0: 0}, mode, M, radius)
    assert len(set(rows)) == len(rows)
    # depth-first order: increasing in the values at BFS positions
    dist = distances_from(g, v0)
    order = sorted(range(g.n), key=lambda v: (dist[v], v))
    keys = [tuple(r[v] for v in order) for r in rows]
    assert keys == sorted(keys)
    assert (res.root, res.mode, res.M) == (v0, mode, M)


@pytest.mark.parametrize("g, v0, mode, M, radius, dtype", ENUMERATION_CASES[:9])
def test_enumeration_cap_fires_on_every_larger_family(g, v0, mode, M, radius, dtype):
    count = enumerate_functions(g, v0, mode, M=M).count
    for cap in sorted({1, count // 2, count - 1} - {0}):
        with pytest.raises(CapExceeded):
            enumerate_functions(g, v0, mode, M=M, cap=cap)
    # no partial level of these families outnumbers the family itself
    assert enumerate_functions(g, v0, mode, M=M, cap=count).count == count


def test_allowed_values():
    g = k4()
    assert allowed_values(g, [0, 0, 0, 0], 1, "lipschitz", 1) == [-1, 0, 1]
    g = c4()
    assert allowed_values(g, [0, 1, 0, 1], 1, "hom") == [-1, 1]
    # neighbors of 2 are both at 1: either side is allowed
    assert allowed_values(g, [0, 1, 2, 1], 2, "hom") == [0, 2]
    # neighbors of 1 at 0 and 2: the middle value is forced
    assert allowed_values(g, [0, 1, 2, 1], 1, "hom") == [1]


def minimal_start(g, root, hom):
    """All zeros, or 0 on the root's color class and 1 on the other."""
    if not hom:
        return (0,) * g.n
    side0 = g.bipartition[0] if root in g.bipartition[0] else g.bipartition[1]
    return tuple(0 if v in side0 else 1 for v in range(g.n))


def philox_words(seed, chain, count):
    """A chain's first ``count`` (vertex, value) word pairs in one draw: the
    raw Philox outputs shifted right by one bit, which is what
    ``integers(0, 2**63)`` returns for them."""
    key = np.random.SeedSequence((seed, chain)).generate_state(2, np.uint64)
    words = np.random.Philox(key=key).random_raw(2 * count) >> np.uint64(1)
    return words[0::2], words[1::2]


C = _kernels.CHUNK_STEPS
# graphs that the block solver takes, and a star, which it does not
REGULAR = gen_random_regular(2048, 8, 0)
BIPARTITE = gen_random_bipartite_regular(1024, 8, 0)
STAR = build_graph(300, [(1, v) for v in range(300) if v != 1])  # the root 0 is a leaf


@pytest.mark.parametrize("count", [1, 8 * C - 1, 8 * C, 8 * C + 1, 24 * C + 5])
@pytest.mark.parametrize("seed, chain", [(11, 0), (3, 7)])
def test_draw_words_match_one_shot_philox(seed, chain, count):
    chunks = list(_draw_words(seed, chain, count))
    sizes = [len(v) for v, _ in chunks]
    assert sizes == [len(x) for _, x in chunks]
    assert sum(sizes) == count and all(size == C for size in sizes[:-1]) and 0 < sizes[-1] <= C
    want_v, want_x = philox_words(seed, chain, count)
    assert np.array_equal(np.concatenate([v for v, _ in chunks]), want_v)
    assert np.array_equal(np.concatenate([x for _, x in chunks]), want_x)
    # Generator.integers(0, 2**63) draws the same words
    key = np.random.SeedSequence((seed, chain)).generate_state(2, np.uint64)
    drawn = np.random.Generator(np.random.Philox(key=key)).integers(
        0, 2**63, size=2 * count, dtype=np.uint64
    )
    assert np.array_equal(drawn[0::2], want_v) and np.array_equal(drawn[1::2], want_x)


def replay_glauber(g, values, free, M, hom, rnd_v, rnd_x, thin, burnin, n_out):
    """Plain-Python heat-bath replay of a pre-drawn word stream: the
    recorded rows and the final state."""
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
    return rows, tuple(values)


@pytest.mark.parametrize(
    "g, mode, M, n_steps, thin, burnin, n_out",
    [
        (k4(), "lipschitz", 2, 300, 7, 20, 25),  # more rows than room: stops at n_out
        (q3(), "hom", 1, 400, 3, 0, 200),  # room to spare
        # several word chunks; burn-in and recorded steps off chunk boundaries
        (q3(), "lipschitz", 2, 16 * C + 777, 13, 1001, 1000),
        (c6(), "hom", 1, 500, 1, 0, 600),  # no burn-in, every state recorded
        (q3(), "hom", 1, 8 * C + 50, 1, 8 * C, 100),  # burn-in ends at a chunk end
        (k4(), "lipschitz", 2, 16 * C, 5, 8 * C - 1, 2000),  # one step short of a chunk end
        (q3(), "lipschitz", 1, 300, 1, 300, 10),  # burn-in takes every step: no rows
        (q3(), "hom", 1, 100, 2, 5000, 10),  # burn-in longer than the run
        (gen_tree(3, 2), "lipschitz", 1, 700, 3, 10, 100),  # degree-1 leaves
        # graphs the block solver takes: burn-in ending mid-block, a record
        # inside a block, thin = 1, the run ending mid-block
        (REGULAR, "lipschitz", 1, 3 * C + 100, 7, C // 2 + 3, 1000),
        (REGULAR, "lipschitz", 3, 5 * C, C, C, 10),  # every record at a block's last step
        (REGULAR, "lipschitz", 1, 2 * C + 3, 5, 3 * C, 10),  # the run ends inside burn-in
        (BIPARTITE, "hom", 1, 6 * C + 11, C + 37, 0, 10),  # thin > block, no burn-in
        (BIPARTITE, "hom", 1, 2 * C + 5, 1, C - 200, 400),  # thin = 1, out fills mid-block
        (gen_tree(3, 6), "lipschitz", 1, 3 * C, 3, 100, 500),  # padded neighbor rows
        (gen_tree(3, 6, glued=True), "hom", 1, 2 * C, 3, 50, 200),  # parallel edges
        (STAR, "lipschitz", 2, 2 * C, 4, 10, 200),
    ],
)
def test_glauber_run_rows_match_python_replay(g, mode, M, n_steps, thin, burnin, n_out):
    check_glauber_run(g, mode, M, n_steps, thin, burnin, n_out)


def check_glauber_run(g, mode, M, n_steps, thin, burnin, n_out):
    """``glauber_run`` gives ``replay_glauber``'s rows and final state."""
    hom = mode == "hom"
    start = minimal_start(g, 0, hom)
    free = [v for v in range(g.n) if v != 0]
    rnd_v, rnd_x = philox_words(11, 0, n_steps)
    want, final = replay_glauber(g, start, free, M, hom, rnd_v, rnd_x, thin, burnin, n_out)
    out = np.full((n_out, g.n), 99, dtype=np.int64)
    values = np.array(start, dtype=np.int64)
    n_rec = _kernels.glauber_run(
        g, values, free, M, hom, _draw_words(11, 0, n_steps), thin, burnin, out,
    )
    assert n_rec == len(want) == min(n_out, max(0, (n_steps - burnin) // thin))
    assert [tuple(r) for r in out[:n_rec].tolist()] == want
    assert (out[n_rec:] == 99).all()
    assert tuple(values.tolist()) == final


def refuse(*args):
    raise AssertionError("this path must not run")


@pytest.mark.parametrize(
    "g, mode, M",
    [
        (REGULAR, "lipschitz", 1),
        (REGULAR, "lipschitz", 3),
        (BIPARTITE, "hom", 1),
        # graphs the rule admits whose blocks often need more than 8 passes
        (gen_tree(3, 6), "lipschitz", 1),
        (gen_random_regular(300, 8, 1), "lipschitz", 3),
    ],
)
def test_block_solver_runs_every_block_of_a_large_graph(monkeypatch, g, mode, M):
    monkeypatch.setattr(_kernels, "_run_steps", refuse)
    check_glauber_run(g, mode, M, 40 * C, 9, 3 * C + 1, 200)


@pytest.mark.parametrize(
    "g, mode, M",
    [
        (k4(), "lipschitz", 1),
        (q3(), "hom", 1),
        (STAR, "lipschitz", 2),
        (gen_tree(3, 6, glued=True), "hom", 1),
    ],
)
def test_small_graphs_run_step_by_step(monkeypatch, g, mode, M):
    monkeypatch.setattr(_kernels, "_solve_block", refuse)
    lists = []
    run_steps = _kernels._run_steps

    def spy(heights, *args):
        lists.append(heights)
        return run_steps(heights, *args)

    monkeypatch.setattr(_kernels, "_run_steps", spy)
    check_glauber_run(g, mode, M, 3 * C + 7, 3, 100, 500)
    # one height list serves the whole run
    assert len(lists) == 4 and all(h is lists[0] for h in lists)


@pytest.mark.parametrize("M", [1, 3])
def test_block_solver_finishes_a_block_that_is_one_chain(M):
    # on K4 with a pinned root, nearly every step reads the step before it,
    # so the dependency chain spans the block (21 and 95 passes here)
    g = k4()
    free = np.array([1, 2, 3])
    rnd_v, rnd_x = philox_words(5, 0, C)
    vertices = free[rnd_v % 3]
    value_words = rnd_x.view(np.int64)
    start = np.array([0, 1, 1, 0], dtype=np.int64)
    first = np.full(g.n, _kernels._NO_STEP, dtype=np.int64)
    nxt = _kernels._next_steps(vertices)
    table = neighbour_table(g)
    writes = _kernels._solve_block(start, vertices, value_words, nxt, table, first, M, False)
    gather = [itemgetter(*a) for a in g.adj]
    want = _kernels._run_steps(start.tolist(), gather, vertices.tolist(), value_words.tolist(), M, False)
    assert np.array_equal(writes, want)
    assert (first == _kernels._NO_STEP).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g, M", [(gen_tree(3, 8), 1), (REGULAR, 2)])
def test_lipschitz_chain_warns_nothing(g, M):
    # passes before convergence may read states with an empty window
    mcmc_sample_array(g, 0, "lipschitz", M=M, burnin=20 * C, thin=C // 4, n_samples=40, seed=4)


@pytest.mark.parametrize(
    "g, root, mode, M, burnin, thin, n_samples, seed, chain",
    [
        (c4(), 0, "hom", None, 0, 25, 1, 9, 0),
        (q3(), 5, "hom", None, 30, 4, 40, 2, 1),
        (k4(), 2, "lipschitz", 2, 17, 3, 30, 4, 0),
    ],
)
def test_mcmc_rows_match_python_replay(g, root, mode, M, burnin, thin, n_samples, seed, chain):
    hom = mode == "hom"
    free = [v for v in range(g.n) if v != root]
    rnd_v, rnd_x = philox_words(seed, chain, burnin + thin * n_samples)
    want, _ = replay_glauber(
        g, minimal_start(g, root, hom), free, M, hom, rnd_v, rnd_x, thin, burnin, n_samples
    )
    arr = mcmc_sample_array(
        g, root, mode, M=M, burnin=burnin, thin=thin, n_samples=n_samples, seed=seed, chain=chain
    )
    assert [tuple(r) for r in arr.tolist()] == want
    assert arr.dtype == _value_dtype((1 if hom else M) * max(distances_from(g, root)))


def cycle(n):
    edges = [(v, (v + 1) % n) for v in range(n)]
    return build_graph(n, edges, bipartition=(range(0, n, 2), range(1, n, 2)))


# (graph, mode, M, dtype of the rows): slope * ecc(0) = 127 still fits
# int8, 128 does not
@pytest.mark.parametrize(
    "g, mode, M, dtype",
    [
        (build_graph(2, [(0, 1)]), "lipschitz", 127, np.int8),
        (build_graph(2, [(0, 1)]), "lipschitz", 128, np.int16),
        (cycle(254), "hom", None, np.int8),
        (cycle(256), "hom", None, np.int16),
    ],
)
def test_mcmc_rows_take_the_narrowest_type(g, mode, M, dtype):
    hom = mode == "hom"
    n = 5000
    rnd_v, rnd_x = philox_words(3, 0, n)
    start = minimal_start(g, 0, hom)
    want, _ = replay_glauber(g, start, list(range(1, g.n)), M, hom, rnd_v, rnd_x, 1, 0, n)
    arr = mcmc_sample_array(g, 0, mode, M=M, burnin=0, thin=1, n_samples=n, seed=3)
    assert arr.dtype == dtype
    assert [tuple(r) for r in arr.tolist()] == want
    if not hom:
        # the free vertex of K2 takes both ends of its range, -M and M
        assert (arr.min(), arr.max()) == (-M, M)


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
    for row in mcmc_sample_array(g, 0, "hom", burnin=200, thin=5, n_samples=30, seed=1):
        assert validate(g, row.tolist(), 0, "hom") == []


def test_glauber_step_preserves_validity():
    # every state of the first 50 steps, root pinned at 0
    g = k4()
    for row in mcmc_sample_array(g, 0, "lipschitz", M=1, burnin=0, thin=1, n_samples=50, seed=3):
        assert validate(g, row.tolist(), 0, "lipschitz", 1) == []
        assert row[0] == 0


def test_mcmc_tv_small_instance():
    g = c4()
    fam = enumerate_functions(g, 0, "hom")
    arr = mcmc_sample_array(g, 0, "hom", burnin=2000, thin=5, n_samples=20_000, seed=2)
    counts = {tuple(row): 0 for row in fam.rows.tolist()}
    for row in arr:
        counts[tuple(int(x) for x in row)] += 1
    tv = 0.5 * sum(abs(c / len(arr) - 1 / fam.count) for c in counts.values())
    assert tv <= 0.02


def test_detailed_balance_symmetry():
    # two states differing at one vertex have equal transition probability
    g = k4()
    fam = enumerate_functions(g, 0, "lipschitz", M=1)
    states = list(map(tuple, fam.rows.tolist()))
    for a in states:
        for b in states:
            diff = [v for v in range(4) if a[v] != b[v]]
            if len(diff) != 1:
                continue
            v = diff[0]
            pa = 1 / len(allowed_values(g, a, v, "lipschitz", 1))
            pb = 1 / len(allowed_values(g, b, v, "lipschitz", 1))
            assert pa == pb  # uniform resampling on a shared allowed set


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
