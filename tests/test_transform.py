import dataclasses
import hashlib
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liphom import (
    ContextError,
    apply_transform,
    build_context,
    build_graph,
    enumerate_functions,
    exhaustive_lambda,
    gen_random_regular,
    gen_tree,
    transform,
    validate,
    verify_counting,
)
from liphom.graphs import distances_from
from liphom.heights import phases_lipschitz
from liphom.transform import build_contexts

from . import conftest
from .conftest import (
    FAMILY_ERRORS,
    c4,
    c6,
    k33,
    k4,
    q3,
    reference_apply_transform,
    reference_build_context,
    reference_verify_counting,
)


def spike(mode, M, child_values, leaf_values):
    """(gen_tree(3, 2), values, v0): the root at M + 1 (2 in hom mode), its
    i-th child at child_values[i] and that child's leaves at leaf_values[i];
    v0 is the first leaf at 0."""
    t = gen_tree(3, 2)
    vals = [0] * t.n
    vals[t.root] = M + 1 if mode == "lipschitz" else 2
    for c, cv, lv in zip(sorted(t.adj[t.root]), child_values, leaf_values):
        vals[c] = cv
        for w in t.adj[c]:
            if w != t.root:
                vals[w] = lv
    v0 = min(w for w in t.leaves if vals[w] == 0)
    return t, vals, v0


def tree_spike():
    """T with h=2, d=3: root at 2, children at 1, leaves at 0 (M = 1)."""
    return spike("lipschitz", 1, (1, 1, 1), (0, 0, 0))


def test_build_context_tree_example():
    t, vals, _ = tree_spike()
    ctx = build_context(t, vals, t.root, 0, "lipschitz", 1)
    assert ctx.a_mask.shape[0] == 1 and np.flatnonzero(ctx.a_mask[0]).tolist() == [t.root]
    x_set = np.flatnonzero(ctx.x_mask[0]).tolist()
    assert len(x_set) == 3
    assert all(ctx.ell[0, x] == 1 and ctx.u[0, x] == 1 for x in x_set)
    assert ctx.image_sizes([0])[0] == 2**3 == 8


@pytest.mark.parametrize(
    "f_args, want",
    [
        # tree_spike: M=1, A = {root}, u = 1 on all 3 of X; alpha = 1*3*3*1,
        # ratio = 1*3*3 * (1/2)^3
        (("lipschitz", 1, (1, 1, 1), (0, 0, 0)), (1, 3, 8, 1, 9, Fraction(9, 8))),
        # M=2, u = (1, 2, 2) on X: |S| = 2*3*3, |S^-| = 1*2*2,
        # alpha = 2*3*5*4, ratio = 2*3*5 * (2/3)^3
        (("lipschitz", 2, (1, 2, 2), (-1, 0, 0)), (1, 3, 18, 4, 120, Fraction(80, 9))),
        # hom: S = {-1, 1}^X, alpha = 2, ratio = 2 / 2^3
        (("hom", None, (1, 1, 1), (0, 0, 0)), (1, 3, 8, 1, 2, Fraction(1, 4))),
    ],
)
def test_corollary_bounds_by_hand(f_args, want):
    mode, M = f_args[:2]
    t, vals, _ = spike(*f_args)
    ctx = build_context(t, vals, t.root, 0, mode, M)
    a_size, x_size = int(ctx.a_mask[0].sum()), int(ctx.x_mask[0].sum())
    s_minus = ctx.s_minus_sizes([0])[0]
    assert (
        a_size,
        x_size,
        ctx.image_sizes([0])[0],
        s_minus,
        transform._preimage_bound(mode, M, a_size, s_minus),
        transform._ratio_bound(mode, M, a_size, x_size),
    ) == want
    ref = reference_build_context(t, vals, t.root, 0, mode, M)
    assert (
        len(ref.A), len(ref.X), ref.image_size, ref.s_minus_size, ref.preimage_bound, ref.ratio_bound
    ) == want


def test_build_context_threshold_precondition():
    t = gen_tree(3, 2)
    vals = [0] * t.n
    vals[t.root] = 1  # f(v) = k+M exactly: not above the threshold
    for c in t.adj[t.root]:
        vals[c] = 1
    with pytest.raises(ContextError):
        build_context(t, vals, t.root, 0, "lipschitz", 1)


def test_apply_transform_tree_example():
    t, vals, v0 = tree_spike()
    ctx = build_context(t, vals, t.root, 0, "lipschitz", 1)
    image = apply_transform(ctx, v0)
    assert len(image) == 8
    for h in image:
        assert validate(t, h, v0, "lipschitz", 1) == []
        # grounded-compatible: leaves still at a common level shifted to 0
        assert all(h[v] == 0 for v in t.leaves)


def test_apply_transform_flat_member():
    # the all-zero s yields f flattened to k+M on A, k on X
    t, vals, v0 = tree_spike()
    ctx = build_context(t, vals, t.root, 0, "lipschitz", 1)
    image = apply_transform(ctx, v0)
    flat = list(vals)
    flat[t.root] = 1
    for x in np.flatnonzero(ctx.x_mask[0]).tolist():
        flat[x] = 0
    assert tuple(flat) in image


def test_apply_transform_guard():
    t, vals, v0 = tree_spike()
    ctx = build_context(t, vals, t.root, 0, "lipschitz", 1)
    with pytest.raises(Exception):
        apply_transform(ctx, v0, guard=4)


@pytest.mark.parametrize("size, high", [(0, 1), (50, 3), (5000, 10**6)])
def test_distinct_pairs_match_counter(size, high):
    rng = np.random.default_rng(size)
    a, b = rng.integers(0, high, size), rng.integers(0, 3 * high, size)
    if size:
        a, b = np.concatenate([a, a[:9]]), np.concatenate([b, b[:9]])  # repeated pairs
    pa, pb, counts = transform._distinct_pairs(a, b)
    want = sorted(Counter(zip(a.tolist(), b.tolist())).items())
    assert list(zip(zip(pa.tolist(), pb.tolist()), counts.tolist())) == want


def test_hom_image_size_q3():
    g = q3()
    lam = exhaustive_lambda(g, "bipartite")
    rep = verify_counting(g, 0, 3, 1, "hom", lam=lam)
    assert rep.all_passed
    assert rep.checks["image_size"].checked > 0


def test_verify_counting_k4_all_vertices():
    g = k4()
    lam = exhaustive_lambda(g)
    for v in range(1, 4):
        rep = verify_counting(g, 0, v, 1, "lipschitz", M=1, lam=lam)
        assert rep.all_passed, {
            n: c.witness for n, c in rep.checks.items() if not c.passed
        }
        assert rep.omega_size > 0


def test_verify_counting_hom_instances():
    for g in (q3(), k33()):
        lam = exhaustive_lambda(g, "bipartite")
        for v in range(1, g.n):
            rep = verify_counting(g, 0, v, 1, "hom", lam=lam)
            assert rep.all_passed, (
                v,
                {n: c.witness for n, c in rep.checks.items() if not c.passed},
            )


def test_verify_counting_tree_zero_strategy():
    gt = gen_tree(3, 2, glued=True)
    rep = verify_counting(gt, gt.glue, gt.root, 1, "lipschitz", M=1, k_strategy="zero")
    assert rep.all_passed, {
        n: c.witness for n, c in rep.checks.items() if not c.passed
    }
    # tree-specific checks actually ran
    assert rep.checks["tree_avoids_leaves"].checked > 0
    assert rep.checks["tree_expansion"].checked > 0


def test_verify_report_serializable():
    g = k4()
    lam = exhaustive_lambda(g)
    rep = verify_counting(g, 0, 1, 1, "lipschitz", M=1, lam=lam)
    d = rep.as_dict()
    assert d["all_passed"] is True
    assert set(d["checks"]) == set(rep.checks)


def test_t_must_be_positive():
    with pytest.raises(ValueError):
        verify_counting(k4(), 0, 1, 0, "lipschitz", M=1, lam=1.0)


@pytest.mark.parametrize("mode, M, message", FAMILY_ERRORS)
def test_verify_counting_rejects_bad_family(mode, M, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_counting(k4(), 0, 1, 1, mode, M=M, k_strategy="zero")


def test_verify_counting_phase_needs_lam():
    with pytest.raises(ValueError, match="needs lam"):
        verify_counting(k4(), 0, 1, 1, "lipschitz", M=1, k_strategy="phase", lam=None)


def test_invalid_image_member_is_reported(monkeypatch):
    g = k4()
    lam = exhaustive_lambda(g)
    bad_member = (0, 5, 0, 0)  # edge (0,1) has gap 5 > M

    def bad_image(ctxs, idx, root):
        # each image is {f, bad_member}
        values = ctxs.values[idx].astype(np.int64)
        members = np.vstack([values, np.tile(bad_member, (len(idx), 1))])
        return members, np.tile(np.arange(len(idx)), 2)

    monkeypatch.setattr(transform, "image_rows", bad_image)
    rep = verify_counting(g, 0, 1, 1, "lipschitz", M=1, lam=lam)
    check = rep.checks["image_members_valid"]
    assert check.checked > 0 and not check.passed and not rep.all_passed
    _, member, violation = check.witness
    assert member == bad_member and "edge (0,1)" in violation


def regular(n, seed):
    return gen_random_regular(n, 3, seed)


def assert_matches_reference(g, v0, v, t, mode, M=None, **kw):
    """verify_counting's report equals the per-member oracle's; returns it."""
    if kw.get("k_strategy", "phase") == "phase":
        kw["lam"] = exhaustive_lambda(g, "bipartite" if mode == "hom" else "general")
    got = verify_counting(g, v0, v, t, mode, M, **kw).as_dict()
    assert got == reference_verify_counting(g, v0, v, t, mode, M, **kw).as_dict()
    return got


GLUED = gen_tree(3, 2, glued=True)
_RING = [9, 7, 5, 3, 1, 0, 2, 4, 6, 8]  # a 10-cycle with 0 opposite 9
CYCLE = build_graph(
    10, list(zip(_RING, _RING[1:] + _RING[:1])), bipartition=(_RING[::2], _RING[1::2])
)
VERIFY_CASES = (
    [pytest.param(k4, 0, v, 1, "lipschitz", 1, {}, id=f"k4-v{v}") for v in (1, 2, 3)]
    + [
        pytest.param(graph, 0, v, 1, "hom", None, {}, id=f"{graph.__name__}-v{v}")
        for graph in (q3, k33)
        for v in range(1, graph().n)
    ]
    + [
        pytest.param(graph, 0, v, 1, "hom", None, {"k_strategy": "zero"}, id=f"{graph.__name__}-v{v}-zero")
        for graph in (q3, k33, c6)
        for v in range(1, graph().n)
    ]
    + [pytest.param(lambda: GLUED, GLUED.glue, GLUED.root, 1, "lipschitz", 1,
                    {"k_strategy": "zero"}, id="glued-tree")]
    + [
        pytest.param(lambda n=n, s=s: regular(n, s), 0, v, t, "lipschitz", M, {},
                     id=f"regular{n}-M{M}-t{t}")
        for n, s, v in ((6, 0, 1), (8, 1, 3), (10, 0, 5))
        for M in (1, 2)
        for t in (1, 2)
        if (n, M) != (10, 2)  # ~240k functions: minutes for the oracle
    ]
    # A's lowest vertex (0, the vertex opposite v0) lies inside A, off X:
    # reconstruction must anchor on a vertex next to X
    + [pytest.param(lambda: CYCLE, 9, 0, 1, "hom", None, {"k_strategy": "zero"}, id="c10-zero")]
    # several S per A, so disjoint_images ticks
    + [
        pytest.param(lambda n=n, s=s: regular(n, s), 0, v, 1, "lipschitz", M,
                     {"k_strategy": "zero"}, id=f"regular{n}-M{M}-zero")
        for n, s, v, M in ((6, 0, 1, 3), (8, 1, 6, 2))
    ]
)


@pytest.mark.parametrize("graph, v0, v, t, mode, M, kw", VERIFY_CASES)
def test_verify_counting_matches_reference(graph, v0, v, t, mode, M, kw):
    assert_matches_reference(graph(), v0, v, t, mode, M, **kw)


# sha1 (first 12 hex digits) of json.dumps(verify_counting(...).as_dict(),
# sort_keys=True) on all-passing instances, as recorded before the checks
# ticked in family order: a report with no failure has no witness, so its
# bytes must not depend on the order of the checks
REPORT_SHA1 = {
    "r10-s0-v1-phase": "295ff90d209b",
    "r10-s0-v1-zero": "44bde18c620c",
    "r10-s0-v5-phase": "4124873f5cb8",
    "r10-s0-v5-zero": "e92b9ddebecb",
    "r10-s1-v1-phase": "2220b658539b",
    "r10-s1-v1-zero": "c1fc2b56bb8c",
    "r10-s1-v5-phase": "95e44826d389",
    "r10-s1-v5-zero": "1f0a60270f08",
    "r10-s2-v1-phase": "7e89c2e04f2c",
    "r10-s2-v1-zero": "08c59ad70d81",
    "r10-s2-v5-phase": "7d2ef885f0fb",
    "r10-s2-v5-zero": "a56b8a9937ac",
    "r10-s3-v1-phase": "b0ab7c0d9e83",
    "r10-s3-v1-zero": "4deb47a7dfad",
    "r10-s3-v5-phase": "f3eaaa7acba2",
    "r10-s3-v5-zero": "80de79938f7b",
    "r10-s4-v1-phase": "13ec0b8e3a72",
    "r10-s4-v1-zero": "47df80214913",
    "r10-s4-v5-phase": "a38dbd67b2d1",
    "r10-s4-v5-zero": "e41183b587db",
    "r10-s5-v1-phase": "1c6155169d8b",
    "r10-s5-v1-zero": "eeaccf02d871",
    "r10-s5-v5-phase": "eb0d013b1340",
    "r10-s5-v5-zero": "80de79938f7b",
    "r12-v1": "11593b10c080",
    "q3-v1-phase": "02a8d676a8c8",
    "q3-v1-zero": "02a8d676a8c8",
    "q3-v2-phase": "4030444466a3",
    "q3-v2-zero": "4030444466a3",
    "q3-v3-phase": "9696f69d289f",
    "q3-v3-zero": "86a59d00d83d",
    "q3-v4-phase": "f0a8d07f9a2b",
    "q3-v4-zero": "f0a8d07f9a2b",
    "q3-v5-phase": "f45f19aa7969",
    "q3-v5-zero": "fcc45a667470",
    "q3-v6-phase": "f50692c35744",
    "q3-v6-zero": "f0c0c2c2be6d",
    "q3-v7-phase": "5ad6f7af4075",
    "q3-v7-zero": "43cd7842277b",
    "k33-v1-phase": "7c878aed24f6",
    "k33-v1-zero": "e513e12b69b6",
    "k33-v2-phase": "9eb49e406341",
    "k33-v2-zero": "e8c40c87d2d7",
    "k33-v3-phase": "ce5d23f477ea",
    "k33-v3-zero": "ce5d23f477ea",
    "k33-v4-phase": "a9625073450e",
    "k33-v4-zero": "a9625073450e",
    "k33-v5-phase": "94f51b985bf8",
    "k33-v5-zero": "94f51b985bf8",
    "glued-lipschitz-zero": "c2c73d4cbdcc",
    "glued-hom-zero": "e788eaaca280",
    "glued-hom-phase": "e788eaaca280",
}


def _report_cases():
    for seed in range(6):
        for v in (1, 5):
            for ks in ("phase", "zero"):
                yield f"r10-s{seed}-v{v}-{ks}", lambda seed=seed: regular(10, seed), 0, v, "lipschitz", 1, ks
    yield "r12-v1", lambda: regular(12, 0), 0, 1, "lipschitz", 1, "phase"
    for graph in (q3, k33):
        for v in range(1, graph().n):
            for ks in ("phase", "zero"):
                yield f"{graph.__name__}-v{v}-{ks}", graph, 0, v, "hom", None, ks
    for mode, M, strategies in (("lipschitz", 1, ("zero",)), ("hom", None, ("zero", "phase"))):
        for ks in strategies:
            yield f"glued-{mode}-{ks}", lambda: GLUED, GLUED.glue, GLUED.root, mode, M, ks


@pytest.mark.parametrize(
    "graph, v0, v, mode, M, k_strategy, digest",
    [pytest.param(*case, REPORT_SHA1[name], id=name) for name, *case in _report_cases()],
)
def test_all_passing_reports_keep_their_bytes(graph, v0, v, mode, M, k_strategy, digest):
    g = graph()
    kw = {"k_strategy": k_strategy}
    if k_strategy == "phase":
        kw["lam"] = exhaustive_lambda(g, "bipartite" if mode == "hom" else "general")
    rep = verify_counting(g, v0, v, 1, mode, M, **kw).as_dict()
    assert rep["all_passed"]
    assert hashlib.sha1(json.dumps(rep, sort_keys=True).encode()).hexdigest()[:12] == digest


def test_verify_counting_one_member_blocks(monkeypatch):
    # every image in a block of its own: block edges cannot change the report
    monkeypatch.setattr(transform, "BLOCK_VALUES", 1)
    assert_matches_reference(regular(8, 1), 0, 3, 2, "lipschitz", 2)
    assert_matches_reference(q3(), 0, 5, 1, "hom")


def test_apply_transform_matches_reference():
    g = regular(8, 1)
    lam = exhaustive_lambda(g)
    rows = enumerate_functions(g, 0, "lipschitz", M=2).rows
    k_all = phases_lipschitz(g, rows, lam, 2)[0]
    seen = 0
    for row, k in zip(rows[::97].tolist(), k_all[::97].tolist()):
        try:
            want = reference_build_context(g, row, 3, k, "lipschitz", 2)
        except ContextError:
            continue
        image = apply_transform(build_context(g, row, 3, k, "lipschitz", 2), 0)
        assert image == reference_apply_transform(want, 0)
        seen += 1
    assert seen > 10


GRAPHS = {"k4": k4(), "q3": q3(), "k33": k33(), "c6": c6(), "r8": regular(8, 0),
          "tree": gen_tree(3, 2, glued=True)}
FAMILY_ROWS = {
    (name, mode): enumerate_functions(g, 0, mode, M=1 if mode == "lipschitz" else None).rows.tolist()
    for name, g in GRAPHS.items()
    for mode in ("lipschitz", "hom")
    if mode == "lipschitz" or g.bipartition is not None
}


@st.composite
def omega_blocks(draw):
    name, mode = draw(st.sampled_from(sorted(FAMILY_ROWS)))
    g = GRAPHS[name]
    M = draw(st.integers(1, 3)) if mode == "lipschitz" else None
    family = st.sampled_from(FAMILY_ROWS[name, mode])
    scaled = family.map(lambda r: [x * M for x in r]) if M else family
    noise = st.lists(st.integers(-3, 5), min_size=g.n, max_size=g.n)
    rows = draw(st.lists(st.one_of(scaled, noise), min_size=1, max_size=8))
    ks = draw(st.lists(st.integers(-3, 2), min_size=len(rows), max_size=len(rows)))
    v = draw(st.integers(0, g.n - 1))
    return g, mode, M, rows, ks, v


@settings(max_examples=300, deadline=None)
@given(omega_blocks())
def test_build_contexts_match_reference(case):
    g, mode, M, rows, ks, v = case
    ctxs = build_contexts(g, np.array(rows), v, ks, mode, M)
    for i, (row, k) in enumerate(zip(rows, ks)):
        try:
            want = reference_build_context(g, row, v, k, mode, M)
        except ContextError as exc:
            assert ctxs.errors.get(i) == str(exc)
            with pytest.raises(ContextError) as info:
                build_context(g, row, v, k, mode, M)
            assert str(info.value) == str(exc)
            continue
        assert i not in ctxs.errors
        assert_same_context(ctxs, i, want)
        assert_same_context(build_context(g, row, v, k, mode, M), 0, want)


def assert_same_context(ctxs, i, want):
    """Row i of ctxs holds the oracle's context want."""
    a = ctxs.a_id[i]
    assert tuple(ctxs.values[i].tolist()) == want.values
    assert np.flatnonzero(ctxs.a_mask[a]).tolist() == sorted(want.A)
    assert np.flatnonzero(ctxs.x_mask[a]).tolist() == sorted(want.X)
    assert (ctxs.mode, int(ctxs.k[i]), ctxs.v, ctxs.M) == (want.mode, want.k, want.v, want.M)
    for got, bounds in ((ctxs.ell[i], want.ell), (ctxs.u[i], want.u)):
        assert {x: int(b) for x, b in enumerate(got) if b} == bounds  # 0 off X
    assert ctxs.image_sizes([i])[0] == want.image_size
    assert ctxs.s_minus_sizes([i])[0] == want.s_minus_size
    # witnesses print the key, so its bytes must match, A's set order too;
    # Y only enters the hom 2-boundary claim, whose errors the callers compare
    key = (want.A, want.s_signature()) if want.mode == "lipschitz" else (want.A,)
    assert repr(ctxs.group_key(i)) == repr(key)


def test_build_context_edgeless_graph():
    # no vertex has a neighbour: the gathers still have a padding column
    g = build_graph(3, [])
    vals = [0, 3, 0]
    assert_same_context(
        build_context(g, vals, 1, 0, "lipschitz", 1), 0, reference_build_context(g, vals, 1, 0, "lipschitz", 1)
    )


@pytest.mark.parametrize(
    "graph, row, mode, a_set, x_set",
    [
        pytest.param(c4, [2, 1, 0, 1], "hom", [0], [1, 3], id="c4"),
        pytest.param(k4, [2, 1, 1, 1], "lipschitz", [0], [1, 2, 3], id="k4"),
        pytest.param(c6, [2, 1, 2, 2, 1, 1], "lipschitz", [0, 2, 3], [1, 4, 5], id="c6"),
        # 3 is above the threshold, three steps from v: A is a proper subset
        pytest.param(c6, [2, 1, 0, 2, 1, 1], "lipschitz", [0], [1, 5], id="c6-apart"),
        pytest.param(lambda: tree_spike()[0], tree_spike()[1], "lipschitz", [0], [1, 2, 3], id="tree"),
    ],
)
def test_build_contexts_shell_examples(graph, row, mode, a_set, x_set):
    # A grown from v = 0 at k = 0, and its outer boundary X
    g, M = graph(), 1 if mode == "lipschitz" else None
    ctxs = build_contexts(g, np.array([row]), 0, [0], mode, M)
    assert not ctxs.errors
    assert np.flatnonzero(ctxs.a_mask[ctxs.a_id[0]]).tolist() == a_set
    assert np.flatnonzero(ctxs.x_mask[ctxs.a_id[0]]).tolist() == x_set
    assert_same_context(ctxs, 0, reference_build_context(g, row, 0, 0, mode, M))


def test_build_contexts_check_f_on_the_2_outer_boundary():
    # on c4 from v = 0, Y = {2}, the vertex opposite v: hom mode needs f = k there
    ctxs = build_contexts(c4(), np.array([[2, 1, 0, 1], [2, 1, -2, 1]]), 0, [0, 0], "hom")
    assert ctxs.errors == {1: "f on the 2-outer boundary is not k"}


def test_build_contexts_share_one_mask_row_per_A():
    # the above-threshold sets differ only at 3, out of square reach of
    # A = {0} on c6: both rows get the one A, its a_id and its mask row
    rows = np.array([[2, 1, 0, 0, 0, 1], [2, 1, 0, 2, 0, 1]])
    ctxs = build_contexts(c6(), rows, 0, [0, 0], "lipschitz", 1)
    assert not ctxs.errors
    assert ctxs.a_id.tolist() == [0, 0]
    assert ctxs.a_mask.shape[0] == ctxs.x_mask.shape[0] == 1
    assert np.flatnonzero(ctxs.a_mask[0]).tolist() == [0]


# Injected failures: the same fault goes into verify_counting and the oracle.


# (0, 256, 0, 0) wraps to the zero function in the family's int8 dtype
@pytest.mark.parametrize("bad_member", [(0, 5, 0, 0), (0, 256, 0, 0)])
def test_invalid_image_member_matches_reference(monkeypatch, bad_member):
    real = transform.image_rows

    def with_bad(ctxs, idx, root):
        members, owner = real(ctxs, idx, root)
        extra = np.tile(bad_member, (len(idx), 1))
        return np.vstack([members, extra]), np.concatenate([owner, np.arange(len(idx))])

    real_ref = conftest.reference_image_members
    monkeypatch.setattr(transform, "image_rows", with_bad)
    monkeypatch.setattr(
        conftest, "reference_image_members", lambda ctx, root: real_ref(ctx, root) + [bad_member]
    )
    rep = assert_matches_reference(k4(), 0, 1, 1, "lipschitz", 1)
    for name in ("image_members_valid", "image_size", "image_in_family"):
        assert not rep["checks"][name]["passed"]
    assert "edge (0,1)" in rep["checks"]["image_members_valid"]["witness"]


def test_sparse_failures_follow_family_order(monkeypatch):
    # a bad member in the images of a few scattered functions: the witness is
    # the first of them in family order, whatever their groups, and whether
    # they share a block of images or (one-member blocks) each has its own
    bad_member = (0, 5, 0, 0, 0, 0, 0, 0)

    def marked(values):
        return sum(values) % 11 == 3

    real = transform.image_rows
    real_ref = conftest.reference_image_members

    def with_bad(ctxs, idx, root):
        members, owner = real(ctxs, idx, root)
        hit = np.flatnonzero([marked(r) for r in ctxs.values[idx].tolist()])
        extra = np.tile(bad_member, (hit.size, 1))
        return np.vstack([members, extra]), np.concatenate([owner, hit])

    monkeypatch.setattr(transform, "image_rows", with_bad)
    monkeypatch.setattr(
        conftest,
        "reference_image_members",
        lambda ctx, root: real_ref(ctx, root) + ([bad_member] if marked(ctx.values) else []),
    )
    for block in (transform.BLOCK_VALUES, 1):
        monkeypatch.setattr(transform, "BLOCK_VALUES", block)
        rep = assert_matches_reference(regular(8, 1), 0, 3, 1, "lipschitz", 2)
        assert not rep["checks"]["image_members_valid"]["passed"]


def test_group_failures_match_reference(monkeypatch):
    # 300 more copies of the one function of Omega whose A is {3, 5}, the
    # third of five groups: that group and its A outgrow every bound, so the
    # group and per-A witnesses must name it, not the first group
    def padded(*args, **kw):
        fam = enumerate_functions(*args, **kw)
        copies = np.repeat(fam.rows[[35]], 300, axis=0)
        return dataclasses.replace(fam, rows=np.vstack([fam.rows, copies]))

    monkeypatch.setattr(transform, "enumerate_functions", padded)
    monkeypatch.setattr(conftest, "enumerate_functions", padded)
    rep = assert_matches_reference(q3(), 0, 3, 1, "hom", k_strategy="zero")
    for name in ("preimage_bound", "double_counting", "ratio_bound_AS", "ratio_bound_A"):
        assert rep["checks"][name]["checked"] == 5 and not rep["checks"][name]["passed"]
    for name in ("preimage_bound", "double_counting", "ratio_bound_AS"):
        assert rep["checks"][name]["witness"].startswith("((frozenset({3, 5}),), 301, ")
    assert rep["checks"]["ratio_bound_A"]["witness"] == "([3, 5], 301)"
    assert rep["checks"]["image_members_valid"]["passed"]


def test_u_recovery_failure_matches_reference(monkeypatch):
    # u_x one too large in every context: no member gives it back
    real = transform.build_contexts

    def wider(*args):
        ctxs = real(*args)
        ctxs.u[ctxs.u > 0] += 1
        return ctxs

    real_ref = conftest.reference_build_context

    def wider_ref(*args):
        ctx = real_ref(*args)
        return dataclasses.replace(ctx, u={x: ux + 1 for x, ux in ctx.u.items()})

    monkeypatch.setattr(transform, "build_contexts", wider)
    monkeypatch.setattr(conftest, "reference_build_context", wider_ref)
    for g, v, M in ((k4(), 1, 1), (regular(8, 1), 3, 1)):
        rep = assert_matches_reference(g, 0, v, 1, "lipschitz", M)
        assert not rep["checks"]["u_recovery"]["passed"]
        # every distinct member is checked, failing or not: as many as
        # reconstruction, which passes here, checks
        check = rep["checks"]["u_recovery"]
        assert check["checked"] == rep["checks"]["reconstruction"]["checked"] > rep["omega_size"]
        assert rep["checks"]["reconstruction"]["passed"]


def bump(members: np.ndarray, col: int) -> np.ndarray:
    """Raise col's value in every member whose value sum is divisible by 3."""
    members = members.copy()
    members[members.sum(axis=1) % 3 == 0, col] += 1
    return members


@pytest.mark.parametrize("mode, M, v", [("lipschitz", 1, 1), ("hom", None, 3)])
def test_reconstruction_failure_matches_reference(monkeypatch, mode, M, v):
    g = regular(8, 1) if mode == "lipschitz" else q3()
    dist = distances_from(g, v)
    far = max(range(g.n), key=lambda w: dist[w])  # outside A u X, and not the root 0
    real = transform.image_rows
    real_ref = conftest.reference_image_members

    def bumped(ctxs, idx, root):
        members, owner = real(ctxs, idx, root)
        return bump(members, far), owner

    monkeypatch.setattr(transform, "image_rows", bumped)
    monkeypatch.setattr(
        conftest,
        "reference_image_members",
        lambda ctx, root: list(map(tuple, bump(np.array(real_ref(ctx, root)), far).tolist())),
    )
    rep = assert_matches_reference(g, 0, v, 1, mode, M, k_strategy="zero")
    check = rep["checks"]["reconstruction"]
    assert not check["passed"]
    # every distinct member is checked, not only up to a function's first failure
    assert check["checked"] > rep["omega_size"]


def test_disjoint_images_failure_matches_reference(monkeypatch):
    # every image is {0}: the images of all S of one A meet
    def zeros(ctxs, idx, root):
        members, owner = real(ctxs, idx, root)
        return np.zeros_like(members), owner

    real = transform.image_rows
    real_ref = conftest.reference_image_members
    monkeypatch.setattr(transform, "image_rows", zeros)
    monkeypatch.setattr(
        conftest, "reference_image_members", lambda ctx, root: [(0,) * len(ctx.values)] * len(real_ref(ctx, root))
    )
    for n, s, v, M in ((6, 0, 1, 3), (8, 1, 6, 2)):
        rep = assert_matches_reference(regular(n, s), 0, v, 1, "lipschitz", M, k_strategy="zero")
        assert not rep["checks"]["disjoint_images"]["passed"]


def test_image_in_family_failure_matches_reference(monkeypatch):
    # a family missing every fifth row misses image members of the rest
    def thinned(*args, **kw):
        fam = enumerate_functions(*args, **kw)
        return dataclasses.replace(fam, rows=np.delete(fam.rows, np.s_[1::5], axis=0))

    monkeypatch.setattr(transform, "enumerate_functions", thinned)
    monkeypatch.setattr(conftest, "enumerate_functions", thinned)
    rep = assert_matches_reference(regular(8, 1), 0, 3, 1, "lipschitz", 1)
    assert not rep["checks"]["image_in_family"]["passed"]
    assert rep["checks"]["image_members_valid"]["passed"]


@pytest.mark.parametrize("mode, M", [("lipschitz", 1), ("lipschitz", 2), ("hom", None)])
def test_context_failure_matches_reference(monkeypatch, mode, M):
    # the family plus copies of its rows with one vertex pushed up or down:
    # these break the claims on A, X and Y
    def spiked(*args, **kw):
        fam = enumerate_functions(*args, **kw)
        rows = fam.rows.astype(np.int64)
        extra = np.repeat(rows[::7], 2, axis=0)
        cols = np.arange(extra.shape[0]) % (rows.shape[1] - 1) + 1
        extra[np.arange(extra.shape[0]), cols] += np.where(np.arange(extra.shape[0]) % 2, 3, -3)
        return dataclasses.replace(fam, rows=np.vstack([rows, extra]))

    monkeypatch.setattr(transform, "enumerate_functions", spiked)
    monkeypatch.setattr(conftest, "enumerate_functions", spiked)
    g = regular(8, 1) if mode == "lipschitz" else q3()
    rep = assert_matches_reference(g, 0, 1, 1, mode, M, k_strategy="zero")
    assert not rep["checks"]["context_claims"]["passed"]
