import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liphom import (
    GraphError,
    ball,
    build_graph,
    gen_random_bipartite_regular,
    gen_random_regular,
    gen_tree,
    graph_from_text,
    graph_to_text,
    graphs,
)
from liphom.graphs import (
    MAX_VERTICES,
    distances_from,
    neighbour_table,
    tree_ball_size,
    tree_level_offsets,
)

from .conftest import (
    boundary,
    c4,
    component_in_square,
    count_connected_sets,
    k4,
    reference_bipartite_regular,
    reference_build_graph,
    reference_edges,
    reference_graph_from_text,
    reference_tree,
    square_neighbors,
)


def test_build_rejects_self_loops_and_duplicates():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 0)])
    with pytest.raises(GraphError):
        build_graph(2, [(0, 1), (1, 0)])


def test_build_rejects_bad_bipartition():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (1, 2), (0, 2)], bipartition=([0, 2], [1]))


def test_k4_degree_and_edges():
    g = k4()
    assert g.degree == 3
    assert g.n_edges == 6


# every (n, d) with n <= 40 and d <= 8 that gen_random_regular accepts
REGULAR_SIZES = [
    (n, d) for n in range(2, 41) for d in range(1, 9) if d < n and n * d % 2 == 0 and (d > 1 or n == 2)
]


def assert_random_regular(n, d, seed):
    """gen_random_regular(n, d, seed) is simple, d-regular, connected and
    the same on a repeat call."""
    g = gen_random_regular(n, d, seed)
    assert g.n == n and g.degree == d
    assert all(len(set(g.adj[v])) == d == len(g.adj[v]) for v in range(g.n))
    assert all(v not in g.adj[v] for v in range(g.n))
    assert min(distances_from(g, 0)) >= 0  # connected
    assert gen_random_regular(n, d, seed).edges() == g.edges()


@given(st.sampled_from(REGULAR_SIZES), st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_gen_random_regular_valid(size, seed):
    assert_random_regular(*size, seed)


def test_gen_random_regular_every_size():
    for n, d in REGULAR_SIZES:
        for seed in range(3):
            assert_random_regular(n, d, seed)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_gen_bipartite_regular_valid(seed):
    g = gen_random_bipartite_regular(6, 3, seed)
    assert g.degree == 3
    assert g.bipartition is not None
    v0, v1 = g.bipartition
    assert len(v0) == len(v1) == 6
    for u in range(g.n):
        side = v0 if u in v0 else v1
        assert all(w not in side for w in g.adj[u])


def edges_or_error(make_edges):
    try:
        return make_edges()
    except GraphError as exc:
        return str(exc)


@st.composite
def bipartite_params(draw):
    n = draw(st.integers(1, 40))
    return n, draw(st.integers(1, min(n, 6))), draw(st.integers(0, 2**31 - 1))


@given(bipartite_params())
@settings(max_examples=60, deadline=None)
def test_gen_bipartite_matches_reference(params):
    n, d, seed = params
    g = gen_random_bipartite_regular(n, d, seed)
    assert g.edges() == reference_bipartite_regular(n, d, seed, 100_000)
    assert g.degree == d and all(len(a) == d for a in g.adj)
    assert all(u < n <= w for u, w in g.edges())


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 8) for d in (n - 1, n) if d >= 1])
@pytest.mark.parametrize("seed", [0, 2])
def test_gen_bipartite_dense_matches_reference(n, d, seed):
    # d >= n - 1: the last matchings are nearly forced, so restarts are many
    g = gen_random_bipartite_regular(n, d, seed)
    assert g.edges() == reference_bipartite_regular(n, d, seed, 100_000)
    assert g.degree == d


def test_gen_bipartite_retry_budget_matches_reference(monkeypatch):
    # gen(4, 4, seed 0) needs a few dozen restarts: small budgets run out
    outcomes = []
    for budget in range(60):
        monkeypatch.setattr(graphs, "BIPARTITE_MAX_RESTARTS", budget)
        outcomes.append(edges_or_error(lambda: gen_random_bipartite_regular(4, 4, 0).edges()))
    assert outcomes == [
        edges_or_error(lambda: reference_bipartite_regular(4, 4, 0, budget)) for budget in range(60)
    ]
    assert outcomes[0] == "retry budget exhausted generating bipartite regular graph"
    assert isinstance(outcomes[-1], list)


@pytest.mark.parametrize(
    "gen, n, d, match",
    [
        (gen_random_bipartite_regular, 0, 0, "class size n=0"),
        (gen_random_bipartite_regular, -3, 2, "class size n=-3"),
        (gen_random_bipartite_regular, 4, 0, "degree d=0"),
        (gen_random_bipartite_regular, 3, 4, "cannot exceed"),
        (gen_random_regular, 0, 0, "vertex count n=0"),
        (gen_random_regular, -3, 2, "vertex count n=-3"),
        (gen_random_regular, 4, 0, "degree d=0"),
        (gen_random_regular, 4, -1, "degree d=-1"),
        (gen_random_regular, 4, 1, "d=1 with n=4"),
        (gen_random_regular, 6, 1, "d=1 with n=6"),
    ],
)
def test_generators_reject_bad_parameters_at_entry(monkeypatch, gen, n, d, match):
    # a one-restart budget: a check made only after drawing would fail with
    # the budget's message, not the entry one
    monkeypatch.setattr(graphs, "REGULAR_MAX_RESTARTS", 1)
    monkeypatch.setattr(graphs, "BIPARTITE_MAX_RESTARTS", 1)
    with pytest.raises(GraphError, match=match):
        gen(n, d, 0)


def test_gen_regular_single_edge():
    assert gen_random_regular(2, 1, 0).edges() == [(0, 1)]


def test_gen_regular_determinism():
    a = gen_random_regular(20, 4, 11)
    b = gen_random_regular(20, 4, 11)
    assert a.adj == b.adj


def test_gen_regular_parity_error():
    with pytest.raises(GraphError):
        gen_random_regular(5, 3, 0)


def test_tree_shape():
    t = gen_tree(3, 2)
    # root degree 3, internal degree 3, leaves degree 1
    assert t.n == 10
    assert len(t.adj[t.root]) == 3
    assert len(t.leaves) == 6
    assert all(len(t.adj[v]) == 1 for v in t.leaves)
    inner = set(range(t.n)) - set(t.leaves)
    assert all(len(t.adj[v]) == 3 for v in inner)


def test_glued_tree_degrees():
    gt = gen_tree(3, 2, glued=True)
    assert gt.glue is not None
    # glue vertex degree d(d-1)^{h-1} = 6
    assert len(gt.adj[gt.glue]) == 6
    inner = set(range(gt.n)) - {gt.glue}
    assert all(len(gt.adj[v]) == 3 for v in inner)


def test_ball_examples():
    g = k4()
    assert ball(g, 1, 0) == frozenset({1})
    assert ball(g, 1, 1) == frozenset(range(4))
    t = gen_tree(3, 2)
    assert len(ball(t, t.root, 1)) == 4


@pytest.mark.parametrize(
    "g",
    [
        build_graph(6, [(2, v) for v in range(6) if v != 2]),  # a star
        gen_tree(3, 3, glued=True),  # parallel edges at the glue vertex
        build_graph(3, []),
        gen_random_regular(64, 8, 1),
    ],
    ids=["star", "glued-tree", "edgeless", "regular"],
)
def test_neighbour_table_columns_hold_the_neighbours(g):
    table = neighbour_table(g)
    width = max(1, *map(len, g.adj))
    assert table.shape == (width, g.n) and table.dtype == np.int64 and table.flags.c_contiguous
    for v, nbrs in enumerate(g.adj):
        # the k-th neighbour, the last one past the degree, v itself if none
        assert table[:, v].tolist() == [(nbrs or (v,))[min(k, len(nbrs) - 1)] for k in range(width)]
        assert set(table[:, v].tolist()) == set(nbrs or (v,))


@pytest.mark.parametrize("glued", (False, True))
def test_gen_tree_matches_reference(glued):
    for d in range(3, 7):
        for h in range(1, 6):
            assert gen_tree(d, h, glued=glued) == reference_tree(d, h, glued)


def test_tree_ball_size_matches_bfs():
    for d in (3, 4, 5):
        for h in range(1, 6):
            g = reference_tree(d, h)
            offsets = tree_level_offsets(d, h)
            assert offsets[-1] == g.n
            depth = distances_from(g, g.root)
            for v in range(g.n):
                assert offsets[depth[v]] <= v < offsets[depth[v] + 1]
                dist = np.array(distances_from(g, v))  # one BFS gives every radius's ball
                for t in range(h + 3):
                    assert tree_ball_size(d, h, depth[v], t) == np.count_nonzero(dist <= t)
    with pytest.raises(GraphError):
        tree_ball_size(3, 2, 3, 1)
    with pytest.raises(GraphError):
        tree_ball_size(3, 2, 1, -1)


def test_boundary_examples():
    g = c4()
    _, bd, bd2 = boundary(g, {0})
    assert bd == frozenset({1, 3})
    assert bd2 == frozenset({2})
    g = k4()
    _, bd, bd2 = boundary(g, {0})
    assert bd == frozenset({1, 2, 3})
    assert bd2 == frozenset()
    t = gen_tree(3, 2)
    _, bd, _ = boundary(t, {t.root})
    assert len(bd) == 3 > (3 - 2) * 1


def test_square_component():
    g = c6()
    assert square_neighbors(g, 0) == frozenset({1, 2, 4, 5})
    comp = component_in_square(g, 0, {0, 2, 3})
    assert comp == frozenset({0, 2, 3})
    comp = component_in_square(g, 0, {0, 3})
    assert comp == frozenset({0})


def c6():
    return build_graph(
        6,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
        bipartition=([0, 2, 4], [1, 3, 5]),
    )


def test_count_connected_sets_trivial():
    g = k4()
    assert count_connected_sets(g, 0, 1) == 1
    # K4: connected 2-sets through vertex 0 are {0,1},{0,2},{0,3}
    assert count_connected_sets(g, 0, 2) == 3


def test_text_roundtrip():
    for g in (k4(), c4(), gen_tree(3, 2)):
        text = graph_to_text(g)
        h = graph_from_text(text)
        assert h.n == g.n
        assert h.adj == g.adj


@st.composite
def text_graphs(draw):
    """A graph with no bipartition, or with a random (often non-contiguous)
    one and random edges across it."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    part0 = draw(st.sets(st.integers(0, n - 1)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u in part0) != (v in part0)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, edges, bipartition=(part0, set(range(n)) - part0))


@settings(max_examples=200, deadline=None)
@given(text_graphs())
def test_text_roundtrip_property(g):
    text = graph_to_text(g)
    assert graph_from_text(text) == g
    assert graph_to_text(graph_from_text(text)) == text


@pytest.mark.parametrize(
    "line",
    ["bipartite", "bipartite 2 0", "bipartite 2 0 0", "bipartite 2 0 9", "bipartite 5", "bipartite x"],
)
def test_text_rejects_bad_bipartite_line(line):
    with pytest.raises(ValueError):
        graph_from_text(f"4 1\n{line}\n0 1\n")


def test_text_bipartite_header():
    g = c4()
    text = graph_to_text(g)
    # V0 = {0,2} is not contiguous, so the header lists it
    assert text.splitlines()[1] == "bipartite 2 0 2"
    assert graph_from_text(text).bipartition == g.bipartition
    from .conftest import k33

    assert graph_to_text(k33()).splitlines()[1] == "bipartite 3"


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the GraphError it raises."""
    try:
        return fn(*args, **kwargs)
    except GraphError as exc:
        return type(exc), str(exc)


# ids that are not plain ints: floats (never truncated), ids past int64,
# strings, None, numpy scalars (accepted) and bools (ints in Python)
ODD_IDS = [1.5, 2.0, 2**63, 2**70, -(2**63) - 1, "1", None, np.int64(2), np.uint64(3), True]


@st.composite
def edge_inputs(draw):
    """(n, pairs, bipartition): mostly valid simple graphs, a third of them
    across a bipartition, with at most one corrupted pair."""
    n = draw(st.integers(-2, 9))
    part0 = draw(st.sets(st.integers(-1, 9))) if draw(st.integers(0, 2)) == 0 else None
    pairs = [
        (u, v) if draw(st.booleans()) else (v, u)
        for u in range(max(n, 0))
        for v in range(u + 1, max(n, 0))
        if draw(st.booleans()) and (part0 is None or (u in part0) != (v in part0))
    ]
    pairs = draw(st.permutations(pairs))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(pairs)))
        u, v = pairs[i] if i < len(pairs) else (0, 1)
        bad = draw(
            st.sampled_from(
                [(u, n), (-1, v), (u, u), (v, u), (u, v), (u, n + 2**40), (u,), (u, v, 0), "uv"]
                + [(u, x) for x in ODD_IDS]
            )
        )
        pairs.insert(draw(st.integers(0, len(pairs))), bad)
    bipartition = None if part0 is None else (part0, set(range(max(n, 0))) - part0)
    return n, pairs, bipartition


@settings(max_examples=400, deadline=None)
@given(edge_inputs(), st.sampled_from(["list", "iterator", "array"]))
def test_build_graph_matches_reference(case, form):
    n, pairs, bipartition = case
    edges = pairs
    if form == "array":
        try:
            edges = np.array(pairs)
        except ValueError:  # pairs of different lengths
            pass
    want = outcome(reference_build_graph, n, edges, bipartition=bipartition)
    if form == "iterator":
        edges = iter(pairs)
    assert outcome(build_graph, n, edges, bipartition=bipartition) == want


# numbers and fields the grammar rejects or reads in only one way
BAD_TOKENS = ["x", "1_0", "٣", "1.5", "99999999999999999999", "-1", "+2", "07", "#", "0x1", "", "9" * 19]


@st.composite
def graph_texts(draw):
    """graph_to_text of a random graph, with up to three lines added,
    dropped or changed and either line ending."""
    lines = graph_to_text(draw(text_graphs())).split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(" ")
        op = draw(st.sampled_from(["blank", "comment", "token", "swap", "copy", "drop", "spaces", "tail"]))
        if op == "blank":
            lines.insert(i, draw(st.sampled_from(["", " \t ", "\x0c"])))
        elif op == "comment":
            lines.insert(i, draw(st.sampled_from(["# note", "  #", "\t# 0 1"])))
        elif op == "token":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(BAD_TOKENS))
            lines[i] = " ".join(fields)
        elif op == "swap":
            lines[i] = " ".join(reversed(fields))
        elif op == "copy":
            lines.insert(i, lines[i])
        elif op == "drop":
            del lines[i]
        elif op == "spaces":
            lines[i] = "\t" + " \t ".join(fields) + "  "
        else:
            lines[i] += draw(st.sampled_from([" # c", " 5", " bipartite", "\r"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=400, deadline=None)
@given(graph_texts())
def test_graph_from_text_matches_reference(text):
    assert outcome(graph_from_text, text) == outcome(reference_graph_from_text, text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 1\n0 x\n", "bad edge line: '0 x'"),
        ("3 x\n0 1\n", "bad header line: '3 x'"),
        ("4 1\n0 1\nbipartite 2\n", "bad edge line: 'bipartite 2'"),
        ("20 1\n0 1_0\n", "bad edge line: '0 1_0'"),
        ("4 1\n0 ٣\n", "bad edge line: '0 ٣'"),
        ("1_0 0\n", "bad header line: '1_0 0'"),
        ("3 1\n0 99999999999999999999\n", "edge (0,99999999999999999999) out of range for n=3"),
        ("99999999999999999999 0\n", "bad header line: '99999999999999999999 0'"),
        ("4 1\nbipartite 99999999999999999999\n0 1\n", "bad bipartite line"),
        ("-1 0\n", "bad header line: '-1 0'"),
        ("3 -1\n", "bad header line: '3 -1'"),
        ("3 1\n0 1 # c\n", "bad edge line: '0 1 # c'"),
        ("3 1\n0 1.5\n", "bad edge line: '0 1.5'"),
        ("3 2\n0 1\n0 2\n2 1\n", "edge line must have u < v: '2 1'"),
        ("3 2\n0 1\n0 1\n", "duplicate edge (0, 1)"),
        ("3 2\n0 1\n", "header declares 2 edges, file has 1"),
        ("# only a comment\n\n", "empty graph file"),
    ],
)
def test_malformed_text_names_the_line(text, message):
    with pytest.raises(GraphError) as exc:
        graph_from_text(text)
    assert message in str(exc.value)
    assert outcome(reference_graph_from_text, text) == (GraphError, str(exc.value))


def test_text_grammar_accepts_blank_comment_and_crlf_lines():
    text = "# made by hand\n\n 4 2 \r\n\t# V0 = {0, 2}\nbipartite 2 0 2\n+0\t1\n\n 2  3\r\n# end\n"
    assert graph_from_text(text) == build_graph(4, [(0, 1), (2, 3)], bipartition=({0, 2}, {1, 3}))


@pytest.mark.parametrize("n", [-1, -5, MAX_VERTICES + 1])
def test_build_rejects_vertex_count_at_entry(n):
    with pytest.raises(GraphError, match=f"vertex count n={n} must be between 0 and {MAX_VERTICES}"):
        build_graph(n, [])


@pytest.mark.parametrize("pair", [(0, 1.5), (1.5, 0), (0, 1.0), (np.float64(0), 1), (0, "1"), (0, None)])
def test_build_rejects_non_integer_ids(pair):
    # numpy would truncate 1.5 to 1; the pair must be rejected instead
    with pytest.raises(GraphError, match="is not a pair of integer vertex ids"):
        build_graph(3, [(1, 2), pair])
    with pytest.raises(GraphError, match="is not a pair of integer vertex ids"):
        build_graph(3, np.array([(1, 2), pair], dtype=object))


def test_build_accepts_integer_arrays_of_any_width():
    pairs = [(0, 1), (1, 2), (2, 0)]
    want = build_graph(3, pairs)
    assert want.degree == 2
    for dtype in (np.int8, np.uint16, np.int32, np.uint64):
        assert build_graph(3, np.array(pairs, dtype=dtype)) == want
    assert build_graph(3, [(np.int64(u), np.uint64(v)) for u, v in pairs]) == want
    with pytest.raises(GraphError, match="out of range"):
        build_graph(3, np.array([(0, 2**63)], dtype=np.uint64))


@pytest.mark.parametrize(
    "g",
    [
        gen_random_regular(64, 8, 1),
        gen_random_bipartite_regular(40, 5, 2),
        gen_tree(3, 4),
        gen_tree(4, 3, glued=True),  # parallel edges at the glue vertex
        build_graph(0, []),
        build_graph(5, [(4, 0)]),
    ],
    ids=["regular", "bipartite", "tree", "glued-tree", "empty", "one-edge"],
)
def test_edges_and_text_match_the_adjacency_walk(g):
    edges = reference_edges(g)
    assert g.edges() == edges
    assert all(type(u) is int and type(w) is int for u, w in g.edges())
    body = "".join(f"{u} {w}\n" for u, w in edges)
    assert graph_to_text(g).endswith("\n" + body if body else "\n")
    if g.glue is None:
        assert reference_build_graph(g.n, edges, bipartition=g.bipartition) == build_graph(
            g.n, edges, bipartition=g.bipartition
        )
