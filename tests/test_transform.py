import pytest

from liphom import (
    ContextError,
    apply_transform,
    build_context,
    exhaustive_lambda,
    gen_tree,
    lipschitz,
    transform,
    validate,
    verify_counting,
)

from .conftest import k33, k4, q3


def tree_spike():
    """T with h=2, d=3: root at 2, children at 1, leaves at 0."""
    t = gen_tree(3, 2)
    vals = [0] * t.n
    vals[t.root] = 2
    for c in t.adj[t.root]:
        vals[c] = 1
    v0 = min(t.leaves)
    return t, lipschitz(vals, v0, 1)


def test_build_context_tree_example():
    t, f = tree_spike()
    ctx = build_context(t, f, t.root, k=0)
    assert ctx.A == frozenset({t.root})
    assert len(ctx.X) == 3
    assert all(ctx.ell[x] == 1 and ctx.u[x] == 1 for x in ctx.X)
    assert ctx.image_size == 2**3 == 8


def test_build_context_threshold_precondition():
    t = gen_tree(3, 2)
    vals = [0] * t.n
    vals[t.root] = 1  # f(v) = k+M exactly: not above the threshold
    for c in t.adj[t.root]:
        vals[c] = 1
    f = lipschitz(vals, min(t.leaves), 1)
    with pytest.raises(ContextError):
        build_context(t, f, t.root, k=0)


def test_apply_transform_tree_example():
    t, f = tree_spike()
    ctx = build_context(t, f, t.root, k=0)
    image = apply_transform(t, f, ctx)
    assert len(image) == 8
    for h in image:
        hf = lipschitz(h, f.root, 1)
        assert validate(t, hf) == []
        # grounded-compatible: leaves still at a common level shifted to 0
        assert all(h[v] == 0 for v in t.leaves)


def test_apply_transform_flat_member():
    # the all-zero s yields f flattened to k+M on A, k on X
    t, f = tree_spike()
    ctx = build_context(t, f, t.root, k=0)
    image = apply_transform(t, f, ctx)
    flat = list(f.values)
    flat[t.root] = 1
    for x in ctx.X:
        flat[x] = 0
    assert tuple(flat) in image


def test_apply_transform_guard():
    t, f = tree_spike()
    ctx = build_context(t, f, t.root, k=0)
    with pytest.raises(Exception):
        apply_transform(t, f, ctx, guard=4)


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


def test_invalid_image_member_is_reported(monkeypatch):
    g = k4()
    lam = exhaustive_lambda(g)
    bad_member = (0, 5, 0, 0)  # edge (0,1) has gap 5 > M

    def bad_image(g, f, ctx, *, guard):
        return frozenset({f.values, bad_member})

    monkeypatch.setattr(transform, "apply_transform", bad_image)
    rep = verify_counting(g, 0, 1, 1, "lipschitz", M=1, lam=lam)
    check = rep.checks["image_members_valid"]
    assert check.checked > 0 and not check.passed and not rep.all_passed
    _, member, violation = check.witness
    assert member == bad_member and "edge (0,1)" in violation
