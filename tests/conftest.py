"""Shared fixtures: small named graphs and independent brute-force oracles.

The enumeration and phase oracles here deliberately avoid the library's
enumeration and phase machinery: they are plain assignment searches over
explicit value ranges and by-definition phase scans of one function at a
time, used as ground truth.  The exhaustive-lambda oracle scores every set
pair (S, T), not only the extreme T of each S.  The flattening-map oracles
build each context, image and check one function and one image member at a
time in Python; the verifier oracle shares only the family enumeration and
the phases with the library.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from liphom import build_graph
from liphom.expansion import CheckResult
from liphom.graphs import GraphError, ball, boundary, check_vertex, component_in_square
from liphom.heights import HeightFunction, Phase, PhaseError, phases_hom, phases_lipschitz, validate
from liphom.samplers import enumerate_functions
from liphom.transform import ContextError, TransformContext, VerifyReport


def k4():
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def c4():
    return build_graph(
        4, [(0, 1), (1, 2), (2, 3), (0, 3)], bipartition=([0, 2], [1, 3])
    )


def c6():
    return build_graph(
        6,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
        bipartition=([0, 2, 4], [1, 3, 5]),
    )


def k33():
    return build_graph(
        6,
        [(i, 3 + j) for i in range(3) for j in range(3)],
        bipartition=(range(3), range(3, 6)),
    )


def kmm(m: int):
    return build_graph(
        2 * m,
        [(i, m + j) for i in range(m) for j in range(m)],
        bipartition=(range(m), range(m, 2 * m)),
    )


def q3():
    edges = [
        (u, v)
        for u in range(8)
        for v in range(u + 1, 8)
        if bin(u ^ v).count("1") == 1
    ]
    even = [v for v in range(8) if bin(v).count("1") % 2 == 0]
    odd = [v for v in range(8) if bin(v).count("1") % 2 == 1]
    return build_graph(8, edges, bipartition=(even, odd))


@pytest.fixture
def graph_k4():
    return k4()


@pytest.fixture
def graph_c4():
    return c4()


@pytest.fixture
def graph_c6():
    return c6()


@pytest.fixture
def graph_k33():
    return k33()


@pytest.fixture
def graph_q3():
    return q3()


def brute_force_count(g, pins: dict[int, int], mode: str, M: int, radius: int) -> int:
    """Independent assignment search: vertices in index order, each value in
    [-radius, radius] unless pinned; constraints checked against assigned
    neighbors only.  Returns the number of valid assignments."""
    values = [None] * g.n
    for v, x in pins.items():
        values[v] = x

    order = [v for v in range(g.n) if v not in pins]

    def ok(v: int, x: int) -> bool:
        for w in g.adj[v]:
            y = values[w]
            if y is None:
                continue
            gap = abs(x - y)
            if mode == "lipschitz" and gap > M:
                return False
            if mode == "hom" and gap != 1:
                return False
        return True

    def rec(i: int) -> int:
        if i == len(order):
            return 1
        v = order[i]
        total = 0
        for x in range(-radius, radius + 1):
            if ok(v, x):
                values[v] = x
                total += rec(i + 1)
                values[v] = None
        return total

    return rec(0)


def brute_force_functions(g, pins: dict[int, int], mode: str, M: int, radius: int):
    """Same search, returning the set of value tuples."""
    values = [None] * g.n
    for v, x in pins.items():
        values[v] = x
    order = [v for v in range(g.n) if v not in pins]
    out = set()

    def ok(v: int, x: int) -> bool:
        for w in g.adj[v]:
            y = values[w]
            if y is None:
                continue
            gap = abs(x - y)
            if mode == "lipschitz" and gap > M:
                return False
            if mode == "hom" and gap != 1:
                return False
        return True

    def rec(i: int):
        if i == len(order):
            out.add(tuple(values))
            return
        v = order[i]
        for x in range(-radius, radius + 1):
            if ok(v, x):
                values[v] = x
                rec(i + 1)
                values[v] = None

    rec(0)
    return out


def reference_phase_lipschitz(g, f, lam):
    """Phase by definition: canonical sign by comparing f with -f as
    tuples, then the excluded count of every candidate base k in turn."""
    if all(x == 0 for x in f.values):
        return Phase(0, 0)
    M = f.M
    budget = 2 * lam * g.n / g.degree
    neg = tuple(-x for x in f.values)
    big = f.values if f.values >= neg else neg
    for k in range(min(big) - M, max(big) + 1):
        if sum(1 for x in big if x < k or x > k + M) <= budget:
            ph = Phase(k, k + M)
            return ph if big is f.values else ph.negate()
    raise PhaseError("no interval satisfies the count bound")


def reference_phase_hom(g, f, lam):
    """Phase (level, class index) of a homomorphism height function.

    The class index is the smallest i (0 = class of the root) admitting a
    level k with |{v in V_i : f(v) != k}| <= 2*lambda*n/d.  The level is the
    smallest such k for the lexicographically larger of {f, -f}; the other
    sign gets the negated level, so that phase(-f) = -phase(f) holds exactly
    (the smallest-k rule alone breaks the antisymmetry when several levels
    qualify).  When lambda < d/3 the refinement bound
    |{v : |f(v)-k| >= 2}| <= 3*lambda*n/d is asserted as well.
    """
    if f.mode != "hom":
        raise ValueError("phase_hom requires a homomorphism function")
    d = g.degree
    if d is None or g.bipartition is None:
        raise GraphError("phase requires a regular bipartite graph")
    n = g.n // 2
    budget = 2 * lam * n / d
    root_side = 0 if f.root in g.bipartition[0] else 1
    classes = [
        sorted(g.bipartition[root_side]),
        sorted(g.bipartition[1 - root_side]),
    ]
    neg = tuple(-x for x in f.values)
    flip = f.values < neg  # scan the canonical representative
    big = neg if flip else f.values
    for i in (0, 1):
        vals = [big[v] for v in classes[i]]
        for k in sorted(set(vals)):
            if sum(1 for x in vals if x != k) <= budget:
                level = -k if flip else k
                ph = Phase(level, level, class_index=i)
                if lam < d / 3:
                    far = hom_far_count(f, ph)
                    if far > 3 * lam * n / d:
                        raise PhaseError(
                            f"refinement bound violated: {far} > 3*lambda*n/d"
                        )
                return ph
    raise PhaseError(
        "no (class, level) satisfies the count bound; lambda is not a valid "
        "expansion parameter for this graph"
    )


def hom_far_count(f, phase):
    """|{v : |f(v) - phase level| >= 2}|."""
    k = phase.lo
    return sum(1 for x in f.values if abs(x - k) >= 2)


def reference_exhaustive_lambda(g, mode):
    """Exact lambda by a direct scan over every nonempty (S, T): S of the
    left side, T of the right side (all of V twice in general mode, the two
    colour classes in bipartite mode), e(S,T) = 1_S' B 1_T from the
    edge-count matrix B, and |e - (d/n)|S||T|| / sqrt(|S||T|) in the float
    expression order of ``exhaustive_lambda``."""
    if mode == "general":
        left = right = list(range(g.n))
        n = g.n
    else:
        left, right = (sorted(part) for part in g.bipartition)
        n = len(left)
    norm = g.degree / n
    lpos = {u: i for i, u in enumerate(left)}
    rpos = {u: j for j, u in enumerate(right)}
    b = np.zeros((len(left), len(right)), dtype=np.int64)
    for u, w in g.edges():
        for x, y in ((u, w), (w, u)):
            if x in lpos and y in rpos:
                b[lpos[x], rpos[y]] += 1

    def indicators(m):
        return (np.arange(1, 1 << m)[:, None] >> np.arange(m)) & 1

    s_ind, t_ind = indicators(len(left)), indicators(len(right))
    k = t_ind.sum(axis=1)
    best = 0.0
    for start in range(0, len(s_ind), 64):
        block = s_ind[start : start + 64]
        e = block @ b @ t_ind.T
        s = block.sum(axis=1)[:, None]
        best = max(best, float((np.abs(e - norm * s * k) / np.sqrt(s * k)).max()))
    return best


def reference_build_context(g, f, v, k):
    """The flattening map's context for f at vertex v and threshold k, built
    with set operations, asserting the structural claims."""
    M = f.M if f.mode == "lipschitz" else None
    thresh = k + M if f.mode == "lipschitz" else k + 1
    vals = f.values
    if vals[v] <= thresh:
        raise ContextError(
            f"f({v}) = {vals[v]} does not exceed the threshold {thresh}"
        )
    inducing = frozenset(w for w in range(g.n) if vals[w] > thresh)
    if len(inducing) == g.n:
        raise ContextError("every vertex is above the threshold; no grounding vertex")
    a = component_in_square(g, v, inducing)
    _, x_set, y_set = boundary(g, a)

    # structural claims about f on A and its shells
    if not all(vals[w] > thresh for w in a):
        raise ContextError("min f(A) fails to exceed the threshold")
    if f.mode == "lipschitz":
        if not all(k + 1 <= vals[w] <= k + M for w in x_set):
            raise ContextError("f on the outer boundary leaves {k+1..k+M}")
        if not all(vals[w] <= k + M for w in y_set):
            raise ContextError("f on the 2-outer boundary exceeds k+M")
    else:
        if not all(vals[w] == k + 1 for w in x_set):
            raise ContextError("f on the outer boundary is not k+1")
        if not all(vals[w] == k for w in y_set):
            raise ContextError("f on the 2-outer boundary is not k")

    ell: dict[int, int] = {}
    u: dict[int, int] = {}
    if f.mode == "lipschitz":
        ax = a | x_set
        for x in x_set:
            outside = [vals[w] + M - k for w in g.adj[x] if w not in ax]
            u[x] = min(outside + [M])
            inside = [vals[w] - M - k for w in g.adj[x] if w in a]
            ell[x] = max(inside)
            if not (1 <= ell[x] <= vals[x] - k <= u[x] <= M):
                raise ContextError(
                    f"bound chain violated at boundary vertex {x}: "
                    f"1 <= {ell[x]} <= {vals[x] - k} <= {u[x]} <= {M}"
                )
    return TransformContext(
        mode=f.mode, k=k, v=v, A=a, X=x_set, Y=y_set, ell=ell, u=u, M=M
    )


def reference_image_members(f, ctx):
    """f's image members under the flattening map, shifted to vanish at the
    root, one per s in itertools.product order over sorted X."""
    xs = sorted(ctx.X)
    vals = f.values
    k, M = ctx.k, ctx.M
    if ctx.mode == "hom":
        ranges = [(-1, 1)] * len(xs)
    else:
        ranges = [tuple(range(ctx.u[x] + 1)) for x in xs]
    out = []
    for s in itertools.product(*ranges):
        h = list(vals)
        if ctx.mode == "hom":
            for w in ctx.A:
                h[w] = vals[w] - 2
            for x, sx in zip(xs, s):
                h[x] = k + sx
        else:
            for w in ctx.A:
                h[w] = k + M
            for x, sx in zip(xs, s):
                h[x] = k + sx
        shift = h[f.root]
        out.append(tuple(val - shift for val in h))
    return out


def reference_apply_transform(g, f, ctx, *, guard=1 << 20):
    """The image set of f, added to a set member by member."""
    if ctx.image_size > guard:
        raise GraphError(
            f"image has {ctx.image_size} members, beyond the guard {guard}"
        )
    out = set()
    for h in reference_image_members(f, ctx):
        out.add(h)
    return frozenset(out)


def reference_verify_counting(
    g, v0, v, t, mode, M=None, *, k_strategy="phase", lam=None, cap=10_000_000, guard=1 << 20
):
    """verify_counting one function and one image member at a time, with
    the contexts and images of ``reference_build_context`` and
    ``reference_apply_transform``."""
    if t < 1:
        raise ValueError("t must be at least 1")
    for u in (v0, v):
        check_vertex(g, u)
    fam = enumerate_functions(g, v0, mode, M=M, cap=cap)
    rows = fam.rows
    if k_strategy == "zero":
        k_all = np.zeros(rows.shape[0], dtype=np.int64)
    elif k_strategy == "phase":
        if mode == "lipschitz":
            k_all = phases_lipschitz(g, rows, lam, M)[0]
        else:
            k_all = phases_hom(g, rows, lam, v0)[0]
    else:
        raise ValueError(f"unknown k strategy {k_strategy!r}")
    slope = M if mode == "lipschitz" else 1
    high = np.flatnonzero(rows[:, v] > k_all + t * slope)
    codomain = set(map(tuple, rows.tolist()))

    names = [
        "context_claims",
        "ball_in_A",
        "image_size",
        "image_members_valid",
        "preimage_bound",
        "ratio_bound_AS",
        "ratio_bound_A",
        "double_counting",
        "reconstruction",
        "image_in_family",
    ]
    if mode == "lipschitz":
        names += ["disjoint_images", "u_recovery"]
    if g.glue is not None:
        names += ["tree_avoids_leaves", "tree_expansion"]
    checks = {name: CheckResult(name) for name in names}

    # the high-deviation event and its partition by (A, S)
    omega = []
    for i, k in zip(high.tolist(), k_all[high].tolist()):
        f = HeightFunction(values=tuple(rows[i].tolist()), root=v0, mode=mode, M=fam.M)
        try:
            ctx = reference_build_context(g, f, v, k)
        except ContextError as exc:
            checks["context_claims"].tick(False, (f.values, str(exc)))
            continue
        checks["context_claims"].tick(True)
        checks["ball_in_A"].tick(ball(g, v, t - 1) <= ctx.A, f.values)
        if g.glue is not None:
            ax = ctx.A | ctx.X
            checks["tree_avoids_leaves"].tick(g.glue not in ax, f.values)
            d = g.degree
            checks["tree_expansion"].tick(
                len(ctx.X) > (d - 2) * len(ctx.A), (f.values, len(ctx.A), len(ctx.X))
            )
        omega.append((f, ctx))

    groups = {}
    for f, ctx in omega:
        key = (ctx.A, ctx.s_signature()) if mode == "lipschitz" else (ctx.A,)
        groups.setdefault(key, []).append((f, ctx))

    by_a = {}
    for f, ctx in omega:
        by_a.setdefault(ctx.A, []).append((f, ctx))

    images_by_group = {}
    q_size = rows.shape[0]

    for key, members in groups.items():
        union_image = set()
        preimage_count = {}
        ctx0 = members[0][1]
        for f, ctx in members:
            image = reference_apply_transform(g, f, ctx, guard=guard)
            checks["image_size"].tick(len(image) == ctx.image_size, f.values)
            bad = _reference_first_invalid(g, f, image)
            checks["image_members_valid"].tick(bad is None, bad)
            checks["image_in_family"].tick(
                all(h in codomain for h in image), f.values
            )
            union_image.update(image)
            for h in image:
                preimage_count[h] = preimage_count.get(h, 0) + 1
            if mode == "lipschitz":
                _reference_check_u_recovery(g, f, ctx, image, checks["u_recovery"])
            _reference_check_reconstruction(g, f, ctx, image, checks["reconstruction"])
        images_by_group[key] = union_image

        # preimage bound alpha and the double-counting ratio
        a_size = len(ctx0.A)
        if mode == "lipschitz":
            alpha = M * (2 * a_size + 1) * (2 * M + 1) ** a_size * ctx0.s_minus_size
        else:
            alpha = 2
        beta = min(ctx.image_size for _, ctx in members)
        worst = max(preimage_count.values())
        checks["preimage_bound"].tick(worst <= alpha, (key, worst, alpha))
        checks["double_counting"].tick(
            Fraction(len(members), q_size) <= Fraction(alpha, beta),
            (key, len(members), alpha, beta),
        )
        checks["ratio_bound_AS"].tick(
            Fraction(len(members), len(union_image)) <= ctx0.ratio_bound,
            (key, len(members), len(union_image)),
        )

    # bound on P(Omega_A^+) per A, and image disjointness across S
    for a_set, members in by_a.items():
        checks["ratio_bound_A"].tick(
            Fraction(len(members), q_size) <= members[0][1].ratio_bound,
            (sorted(a_set), len(members)),
        )

    if mode == "lipschitz":
        keys_by_a = {}
        for key in groups:
            keys_by_a.setdefault(key[0], []).append(key)
        for a_set, keys in keys_by_a.items():
            for k1, k2 in itertools.combinations(keys, 2):
                inter = images_by_group[k1] & images_by_group[k2]
                checks["disjoint_images"].tick(not inter, (k1, k2))

    return VerifyReport(
        mode=mode,
        v=v,
        t=t,
        family_size=q_size,
        omega_size=len(omega),
        checks=checks,
    )


def _reference_first_invalid(g, f, image):
    """(f, member, first violation) for an image member outside f's family,
    or None when every member is valid."""
    for h in image:
        bad = validate(g, HeightFunction(values=h, root=f.root, mode=f.mode, M=f.M))
        if bad:
            return f.values, h, bad[0]
    return None


def _reference_check_u_recovery(g, f, ctx, image, check):
    """u_x must be recoverable from any image member alone."""
    ax = ctx.A | ctx.X
    for h in image:
        ok = True
        for x in ctx.X:
            outside = [h[w] - h[ctx.v] + 2 * ctx.M for w in g.adj[x] if w not in ax]
            rec = min(outside + [ctx.M])
            if rec != ctx.u[x]:
                ok = False
                break
        check.tick(ok, (f.values, h))
        if not ok:
            return


def _reference_check_reconstruction(g, f, ctx, image, check):
    """f must be uniquely recoverable from (h, k, f restricted to A u X)."""
    vals = f.values
    ax = ctx.A | ctx.X
    for h in image:
        if ctx.mode == "lipschitz":
            shift = ctx.k + ctx.M - h[ctx.v]
        else:
            w_star = next(
                w for w in ctx.A if any(x in ctx.X for x in g.adj[w])
            )
            shift = ctx.k - h[w_star]
        rec = list(h)
        for w in range(g.n):
            if w in ax:
                rec[w] = vals[w]
            else:
                rec[w] = h[w] + shift
        check.tick(tuple(rec) == vals, (f.values, h))
        if tuple(rec) != vals:
            return
