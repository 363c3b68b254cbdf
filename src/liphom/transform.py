"""The few-to-many transformation on high-deviation height functions, and
the exhaustive verifier that checks its counting properties on enumerable
instances.

Everything works on arrays: ``build_contexts`` builds the contexts of a
block of rows, ``image_rows`` lays the image members of a batch of contexts
out as the rows of one int array, and ``verify_counting`` checks them with
column operations.  ``build_context`` and ``apply_transform`` are the
one-row wrappers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .expansion import CheckResult
from .graphs import Graph, GraphError, ball, boundary, check_vertex, component_in_square
from .heights import HeightFunction, phases_hom, phases_lipschitz, validate
from .samplers import BLOCK_VALUES, enumerate_functions

__all__ = [
    "TransformContext",
    "ContextError",
    "Contexts",
    "build_context",
    "build_contexts",
    "apply_transform",
    "image_rows",
    "verify_counting",
    "VerifyReport",
]

# neutral value of the neighbour gathers' min / max (far from any overflow)
_BIG = np.iinfo(np.int64).max // 4


class ContextError(ValueError):
    pass


@dataclass(frozen=True)
class TransformContext:
    """The data underlying one application of the flattening map: threshold
    level k, the component A of v above the threshold in the distance-<=2
    graph, its shells X and Y, and (Lipschitz only) the per-boundary-vertex
    bounds ell_x <= f(x)-k <= u_x."""

    mode: str
    k: int
    v: int
    A: frozenset[int]
    X: frozenset[int]
    Y: frozenset[int]
    ell: dict[int, int]
    u: dict[int, int]
    M: int | None

    @property
    def image_size(self) -> int:
        if self.mode == "hom":
            return 2 ** len(self.X)
        out = 1
        for x in self.X:
            out *= self.u[x] + 1
        return out

    @property
    def s_minus_size(self) -> int:
        if self.mode == "hom":
            return 1
        out = 1
        for x in self.X:
            out *= self.u[x]
        return out

    @property
    def ratio_bound(self) -> Fraction:
        """The corollary's bound for the component A, on both
        |Omega_{A,S}| / |image of Omega_{A,S}| and P(Omega_A^+)."""
        if self.mode == "hom":
            return Fraction(2, 2 ** len(self.X))
        M, a_size = self.M, len(self.A)
        return M * (2 * a_size + 1) * (2 * M + 1) ** a_size * Fraction(M, M + 1) ** len(self.X)

    def s_signature(self) -> tuple:
        """Hashable identity of the product set S (for partitioning)."""
        if self.mode == "hom":
            return tuple(sorted(self.X))
        return tuple(sorted(self.u.items()))


@dataclass(frozen=True)
class Contexts:
    """The contexts (see TransformContext) of a batch of rows, as arrays.

    Row i's A is ``a_sets[a_id[i]]``, and its X and Y sit at the same index;
    ``a_mask`` / ``x_mask`` hold A and X as vertex masks.  ell and u are
    (rows, n) arrays, 0 off X (Lipschitz only: zero columns in hom mode).
    ``errors`` maps each row whose structural claims fail to its
    ContextError message; such a row has ell = u = 0, and a_id = -1 when it
    has no A.
    """

    mode: str
    M: int | None
    v: int
    values: np.ndarray
    k: np.ndarray
    a_id: np.ndarray
    a_sets: list[frozenset[int]]
    x_sets: list[frozenset[int]]
    y_sets: list[frozenset[int]]
    a_mask: np.ndarray
    x_mask: np.ndarray
    ell: np.ndarray
    u: np.ndarray
    errors: dict[int, str]

    @classmethod
    def of(cls, ctx: TransformContext, values) -> "Contexts":
        """The one-row batch holding ctx, for the function with these values."""
        n = len(values)
        a_mask, x_mask = np.zeros((2, 1, n), dtype=bool)
        a_mask[0, list(ctx.A)] = True
        x_mask[0, list(ctx.X)] = True
        ell, u = np.zeros((2, 1, n if ctx.mode == "lipschitz" else 0), dtype=np.int64)
        for x in ctx.u:
            ell[0, x], u[0, x] = ctx.ell[x], ctx.u[x]
        return cls(
            mode=ctx.mode, M=ctx.M, v=ctx.v, values=np.array([values], dtype=np.int64),
            k=np.array([ctx.k], dtype=np.int64), a_id=np.zeros(1, dtype=np.int64),
            a_sets=[ctx.A], x_sets=[ctx.X], y_sets=[ctx.Y], a_mask=a_mask, x_mask=x_mask,
            ell=ell, u=u, errors={},
        )

    def context(self, i: int) -> TransformContext:
        """Row i's context (the row must have no error)."""
        a = self.a_id[i]
        x_set = self.x_sets[a]
        ell: dict[int, int] = {}
        u: dict[int, int] = {}
        if self.mode == "lipschitz":
            for x in x_set:
                ell[x], u[x] = int(self.ell[i, x]), int(self.u[i, x])
        return TransformContext(
            mode=self.mode, k=int(self.k[i]), v=self.v, A=self.a_sets[a], X=x_set,
            Y=self.y_sets[a], ell=ell, u=u, M=self.M,
        )

    def radices(self, idx) -> np.ndarray:
        """(len(idx), n) int64: the number of values S allows at each vertex
        of rows idx (u_x + 1, or 2 in hom mode, on X; 1 elsewhere)."""
        in_x = self.x_mask[self.a_id[idx]]
        if self.mode == "hom":
            return np.where(in_x, 2, 1)
        return np.where(in_x, self.u[idx].astype(np.int64) + 1, 1)

    def image_sizes(self, idx) -> np.ndarray:
        """|S| of rows idx as exact Python ints (object array): a product
        over X may pass int64 before the guard has been checked."""
        return np.prod(self.radices(idx).astype(object), axis=1)


def _row_keys(a: np.ndarray) -> np.ndarray:
    """One opaque key per row of a 2-d array (its bytes): equal rows, and
    only they, get equal keys, and keys sort."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def _neighbour_table(g: Graph) -> np.ndarray:
    """(n, max(1, max degree)) neighbour ids, padded with n: gathers append a
    column holding the reduction's neutral value."""
    table = np.full((g.n, max(1, *map(len, g.adj))), g.n, dtype=np.int64)
    for u, nbrs in enumerate(g.adj):
        table[u, : len(nbrs)] = nbrs
    return table


def _gather(values: np.ndarray, nbr: np.ndarray, pad: int) -> np.ndarray:
    """(rows, n, width): values at each vertex's neighbours, pad for padding."""
    return np.pad(values, ((0, 0), (0, 1)), constant_values=pad)[:, nbr]


def _first_occurrence_labels(keys: np.ndarray, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """Label each key (row, with axis=0) 0, 1, ... in order of first
    occurrence; also return where each label first occurs."""
    _, first, inverse = np.unique(keys, axis=axis, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse.ravel()], np.sort(first)


def _distinct_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct pairs (a[i], b[i]) of two int arrays, sorted, as two
    arrays, and how often each occurs."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    new = np.ones(a.size, dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    starts = np.flatnonzero(new)
    return a[starts], b[starts], np.diff(np.append(starts, a.size))


def build_contexts(g: Graph, rows, v: int, k, mode: str, M: int | None = None) -> Contexts:
    """Contexts of every row of a (count, n) integer array at vertex v, with
    one threshold level per row in k, checking the structural claims of
    ``build_context`` for each row.

    A depends only on a row's set of vertices above the threshold, so it is
    formed once per distinct set (keyed by its packed bitmask), and X and Y
    once per distinct A.  The claims and ell/u come from gathers of the
    rows' values over every vertex's neighbours, a block of rows at a time.
    """
    rows = np.asarray(rows)
    k = np.asarray(k, dtype=np.int64)
    count, n = rows.shape
    lip = mode == "lipschitz"
    thresh = k + (M if lip else 1)
    errors: dict[int, str] = {}
    for i in np.flatnonzero(rows[:, v] <= thresh).tolist():
        errors[i] = f"f({v}) = {int(rows[i, v])} does not exceed the threshold {int(thresh[i])}"
    above = rows > thresh[:, None]
    for i in np.flatnonzero(above.all(axis=1)).tolist():
        errors[i] = "every vertex is above the threshold; no grounding vertex"
    todo = np.setdiff1d(np.arange(count), list(errors))

    a_id = np.full(count, -1, dtype=np.int64)
    a_index: dict[frozenset[int], int] = {}
    _, first, inverse = np.unique(
        _row_keys(np.packbits(above[todo], axis=1)), return_index=True, return_inverse=True
    )
    ids = [
        a_index.setdefault(component_in_square(g, v, np.flatnonzero(above[i]).tolist()), len(a_index))
        for i in todo[first]
    ]
    a_id[todo] = np.asarray(ids, dtype=np.int64)[inverse]
    a_sets = list(a_index)
    shells = [boundary(g, a)[1:] for a in a_sets]
    x_sets, y_sets = [s[0] for s in shells], [s[1] for s in shells]
    a_mask, x_mask, y_mask = np.zeros((3, len(a_sets), n), dtype=bool)
    for j, (a, x, y) in enumerate(zip(a_sets, x_sets, y_sets)):
        a_mask[j, list(a)], x_mask[j, list(x)], y_mask[j, list(y)] = True, True, True

    width = n if lip else 0
    bound_dtype = np.min_scalar_type(M) if lip else np.uint8  # ell, u lie in 1..M
    ell = np.zeros((count, width), dtype=bound_dtype)
    u = np.zeros((count, width), dtype=bound_dtype)
    nbr = _neighbour_table(g)
    step = max(1, BLOCK_VALUES // nbr.size)
    for start in range(0, todo.size, step):
        idx = todo[start : start + step]
        vals = rows[idx].astype(np.int64)
        kk, ids = k[idx, None], a_id[idx]
        in_a, in_x, in_y = a_mask[ids], x_mask[ids], y_mask[ids]
        # unchecked claims that cannot fail: f exceeds the threshold on A,
        # which lies in the above-threshold set, and (Lipschitz) f <= k+M on
        # Y, since a vertex of Y above it would be square-adjacent to A and
        # so be in A
        if lip:
            claims = [
                ((kk + 1 <= vals) & (vals <= kk + M) | ~in_x, "f on the outer boundary leaves {k+1..k+M}"),
            ]
        else:
            claims = [
                ((vals == kk + 1) | ~in_x, "f on the outer boundary is not k+1"),
                ((vals == kk) | ~in_y, "f on the 2-outer boundary is not k"),
            ]
        good = np.ones(idx.size, dtype=bool)
        for holds, message in claims:
            holds = holds.all(axis=1)
            for i in idx[~holds & good].tolist():
                errors[i] = message
            good &= holds
        if not lip:
            continue
        # u_x = min({f(w)+M-k : w ~ x outside A u X} u {M}), ell_x = max{f(w)-M-k : w ~ x in A}
        u_b = np.minimum(_gather(np.where(in_a | in_x, _BIG, vals + M - kk), nbr, _BIG).min(axis=2), M)
        ell_b = _gather(np.where(in_a, vals - M - kk, -_BIG), nbr, -_BIG).max(axis=2)
        off = vals - kk
        chain = (1 <= ell_b) & (ell_b <= off) & (off <= u_b) & (u_b <= M) | ~in_x
        for j in np.flatnonzero(good & ~chain.all(axis=1)).tolist():
            x = next(x for x in x_sets[ids[j]] if not chain[j, x])
            errors[int(idx[j])] = (
                f"bound chain violated at boundary vertex {x}: "
                f"1 <= {ell_b[j, x]} <= {off[j, x]} <= {u_b[j, x]} <= {M}"
            )
        good &= chain.all(axis=1)
        keep = good[:, None] & in_x
        ell[idx] = np.where(keep, ell_b, 0)
        u[idx] = np.where(keep, u_b, 0)
    return Contexts(
        mode=mode, M=M, v=v, values=rows, k=k, a_id=a_id, a_sets=a_sets, x_sets=x_sets,
        y_sets=y_sets, a_mask=a_mask, x_mask=x_mask, ell=ell, u=u, errors=errors,
    )


def build_context(g: Graph, f: HeightFunction, v: int, k: int) -> TransformContext:
    """Assemble the context for f at vertex v and threshold k, asserting the
    structural claims (values on X and the 2-boundary; the ell/u chain)
    before returning."""
    M = f.M if f.mode == "lipschitz" else None
    ctxs = build_contexts(g, np.array([f.values], dtype=np.int64), v, [k], f.mode, M)
    if ctxs.errors:
        raise ContextError(ctxs.errors[0])
    return ctxs.context(0)


def image_rows(ctxs: Contexts, idx, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Every image member of rows idx of ctxs under the flattening map,
    shifted to vanish at the root, as one (members, n) int64 array, and the
    position in idx each member comes from.

    A row's members are mixed-radix decodings of 0..|S|-1 (the last vertex
    of X varies fastest, as in ``itertools.product`` over sorted X).  Members
    are not validated here, and the caller has checked |S| against its guard.
    """
    idx = np.asarray(idx)
    vals = ctxs.values[idx].astype(np.int64)
    k = ctxs.k[idx, None]
    in_a, in_x = ctxs.a_mask[ctxs.a_id[idx]], ctxs.x_mask[ctxs.a_id[idx]]
    if ctxs.mode == "hom":
        base, first, step = np.where(in_a, vals - 2, vals), k - 1, 2  # s_x in (-1, 1)
    else:
        base, first, step = np.where(in_a, k + ctxs.M, vals), k, 1  # s_x in 0..u_x
    radix = ctxs.radices(idx)
    stride = np.ones_like(radix)  # stride[:, c] = product of radix[:, c+1:]
    stride[:, :-1] = np.cumprod(radix[:, :0:-1], axis=1)[:, ::-1]
    sizes = stride[:, 0] * radix[:, 0]
    owner = np.repeat(np.arange(idx.size), sizes)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    digit = rank[:, None] // stride[owner] % radix[owner]
    members = np.where(in_x[owner], first[owner] + step * digit, base[owner])
    return members - members[:, [root]], owner


def apply_transform(
    g: Graph,
    f: HeightFunction,
    ctx: TransformContext,
    *,
    guard: int = 1 << 20,
) -> frozenset[tuple[int, ...]]:
    """Materialize the full image set of f under the flattening map, shifted
    to vanish at the root.  Members are not validated here;
    ``verify_counting`` checks each one.

    Raises when the image would exceed ``guard`` members.
    """
    if ctx.image_size > guard:
        raise GraphError(
            f"image has {ctx.image_size} members, beyond the guard {guard}"
        )
    members, _ = image_rows(Contexts.of(ctx, f.values), [0], f.root)
    return _image_set(members)


def _image_set(members: np.ndarray) -> frozenset[tuple[int, ...]]:
    # Collected into a set first: a frozenset copied from a set iterates in
    # another order than one built straight from the rows, and the
    # verifier's first-failure witnesses follow this order.
    return frozenset(set(map(tuple, members.tolist())))


@dataclass
class VerifyReport:
    mode: str
    v: int
    t: int
    family_size: int
    omega_size: int
    checks: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "v": self.v,
            "t": self.t,
            "family_size": self.family_size,
            "omega_size": self.omega_size,
            "all_passed": self.all_passed,
            "checks": {
                name: {
                    "checked": c.checked,
                    "passed": c.passed,
                    "witness": repr(c.witness) if c.witness is not None else None,
                }
                for name, c in self.checks.items()
            },
        }


def _tick_all(check: CheckResult, ok, witness, ticks=None) -> None:
    """Record outcomes ok[0], ok[1], ... on check in order: one tick each, or
    ticks[i] for entry i when given.  witness(i) gives entry i's witness and
    is called for the first failing entry only."""
    ok = np.asarray(ok, dtype=bool)
    check.checked += int(ok.size if ticks is None else np.sum(ticks))
    if not ok.all():
        check.passed = False
        if check.witness is None:
            check.witness = witness(int(np.argmin(ok)))


def verify_counting(
    g: Graph,
    v0: int,
    v: int,
    t: int,
    mode: str,
    M: int | None = None,
    *,
    k_strategy: str = "phase",
    lam: float | None = None,
    cap: int = 10_000_000,
    guard: int = 1 << 20,
) -> VerifyReport:
    """Enumerate the family, build the high-deviation event at vertex v, and
    check every counting property of the flattening map exactly.

    k_strategy "phase" uses the phase base level (requires lam); "zero"
    is the grounded-tree convention.  All checks are recorded with a first
    counterexample on failure.

    Checks tick once per function of the event, per (A, S) group or per A;
    u_recovery and reconstruction tick once per image member, up to a
    function's first failing one.  disjoint_images ticks once per pair of
    (A, S) groups that share an A, so it reads checked 0 when every A has a
    single S, as on the phase-strategy instances tried so far (the
    benchmark's n=12 one among them); k_strategy "zero" instances give such
    pairs.  Groups and A's are walked in order of first occurrence, each
    group's functions in family order, and each image in the iteration
    order of ``apply_transform``'s frozenset.
    """
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
    q_size = rows.shape[0]

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

    # the high-deviation event Omega: the rows of ctxs whose context holds
    ctxs = build_contexts(g, rows[high], v, k_all[high], mode, fam.M)

    def values(i):
        return tuple(ctxs.values[i].tolist())

    holds = np.ones(high.size, dtype=bool)
    holds[list(ctxs.errors)] = False
    _tick_all(checks["context_claims"], holds, lambda i: (values(i), ctxs.errors[i]))
    omega = np.flatnonzero(holds)
    a_id = ctxs.a_id[omega]
    a_sets, x_sets = ctxs.a_sets, ctxs.x_sets
    near = ball(g, v, t - 1)
    in_a = np.array([near <= a for a in a_sets], dtype=bool)
    _tick_all(checks["ball_in_A"], in_a[a_id], lambda j: values(omega[j]))
    if g.glue is not None:
        avoids = np.array([g.glue not in a | x for a, x in zip(a_sets, x_sets)], dtype=bool)
        expands = np.array(
            [len(x) > (g.degree - 2) * len(a) for a, x in zip(a_sets, x_sets)], dtype=bool
        )
        _tick_all(checks["tree_avoids_leaves"], avoids[a_id], lambda j: values(omega[j]))
        _tick_all(
            checks["tree_expansion"],
            expands[a_id],
            lambda j: (values(omega[j]), len(a_sets[a_id[j]]), len(x_sets[a_id[j]])),
        )

    # the partition by (A, S) (by A in hom mode), walked group by group
    if mode == "lipschitz":
        group, group_first = _first_occurrence_labels(
            np.column_stack([a_id, ctxs.u[omega]]), axis=0
        )
    else:
        group, group_first = _first_occurrence_labels(a_id)
    walk = np.argsort(group, kind="stable")
    sizes = ctxs.image_sizes(omega)
    over = np.flatnonzero(sizes[walk] > guard)
    if over.size:
        raise GraphError(f"image has {sizes[walk[over[0]]]} members, beyond the guard {guard}")
    sizes = sizes.astype(np.int64)

    def key(ctx):
        return (ctx.A, ctx.s_signature()) if mode == "lipschitz" else (ctx.A,)

    def walked(name, ok, witness, ticks=None):
        _tick_all(
            checks[name],
            ok[walk],
            lambda i: witness(int(walk[i])),
            None if ticks is None else ticks[walk],
        )

    found = _check_images(g, ctxs, omega, v0, sizes, rows)
    walked("image_size", found.distinct == sizes, lambda j: values(omega[j]))
    walked(
        "image_members_valid",
        found.ok["image_members_valid"],
        lambda j: found.invalid_witness(g, values(omega[j]), j, fam),
    )
    walked("image_in_family", found.in_family, lambda j: values(omega[j]))
    for name in ("u_recovery", "reconstruction"):
        if name in checks:
            walked(
                name,
                found.ok[name],
                lambda j, name=name: (values(omega[j]), found.stop[name][j][1]),
                found.ticks(name),
            )

    # per group: the preimage bound alpha, the double-counting ratio and the
    # ratio to |union of images|, from the distinct (group, member) pairs
    n_groups = group_first.size
    members_of = np.bincount(group, minlength=n_groups)
    beta = np.full(n_groups, np.iinfo(np.int64).max)
    np.minimum.at(beta, group, sizes)
    pair_group, pair_key, preimages = _distinct_pairs(group[found.pairs[0]], found.pairs[1])
    union = np.bincount(pair_group, minlength=n_groups)
    worst = np.zeros(n_groups, dtype=np.int64)
    np.maximum.at(worst, pair_group, preimages)
    for gi, j in enumerate(group_first.tolist()):
        ctx0 = ctxs.context(omega[j])
        key0, size = key(ctx0), int(members_of[gi])
        a_size = len(ctx0.A)
        if mode == "lipschitz":
            alpha = M * (2 * a_size + 1) * (2 * M + 1) ** a_size * ctx0.s_minus_size
        else:
            alpha = 2
        b, w, un = int(beta[gi]), int(worst[gi]), int(union[gi])
        checks["preimage_bound"].tick(w <= alpha, (key0, w, alpha))
        checks["double_counting"].tick(
            Fraction(size, q_size) <= Fraction(alpha, b), (key0, size, alpha, b)
        )
        checks["ratio_bound_AS"].tick(Fraction(size, un) <= ctx0.ratio_bound, (key0, size, un))

    # bound on P(Omega_A^+) per A, and image disjointness across S
    a_label, a_first = _first_occurrence_labels(a_id)
    members_of_a = np.bincount(a_label, minlength=a_first.size)
    for j, first in enumerate(a_first.tolist()):
        ctx = ctxs.context(omega[first])
        checks["ratio_bound_A"].tick(
            Fraction(int(members_of_a[j]), q_size) <= ctx.ratio_bound,
            (sorted(ctx.A), int(members_of_a[j])),
        )

    if mode == "lipschitz":
        group_a = a_label[group_first]
        groups_of_a = np.bincount(group_a, minlength=a_first.size)
        # the A's with a member in the images of two of their groups
        pair_a, _, in_groups = _distinct_pairs(group_a[pair_group], pair_key)
        shared = set(pair_a[in_groups > 1].tolist())
        for j, n_a in enumerate(groups_of_a.tolist()):
            if j not in shared:
                checks["disjoint_images"].checked += n_a * (n_a - 1) // 2
                continue
            images = {
                gi: set(pair_key[pair_group == gi].tolist()) for gi in np.flatnonzero(group_a == j)
            }
            for g1, g2 in itertools.combinations(images, 2):
                checks["disjoint_images"].tick(
                    not images[g1] & images[g2],
                    (key(ctxs.context(omega[group_first[g1]])), key(ctxs.context(omega[group_first[g2]]))),
                )

    return VerifyReport(
        mode=mode,
        v=v,
        t=t,
        family_size=q_size,
        omega_size=int(omega.size),
        checks=checks,
    )


@dataclass
class _ImageChecks:
    """Per-member checks of the images of the functions of Omega, as one
    outcome per function (indexed by position in Omega)."""

    distinct: np.ndarray  # distinct image members
    in_family: np.ndarray  # every member is a family row
    ok: dict[str, np.ndarray]  # every member passes the check
    # for each function with a failing member: (1-based position of its
    # first failing member in the image frozenset's order, that member)
    stop: dict[str, dict[int, tuple[int, tuple[int, ...]]]]
    pairs: tuple[np.ndarray, np.ndarray]  # distinct (function, member key) pairs

    def ticks(self, name: str) -> np.ndarray:
        """Members checked per function: all of them, or up to the first failure."""
        out = self.distinct.copy()
        for j, (position, _) in self.stop[name].items():
            out[j] = position
        return out

    def invalid_witness(self, g: Graph, values, j: int, fam) -> tuple:
        """(f, first invalid member, its first violation) of function j."""
        h = self.stop["image_members_valid"][j][1]
        return values, h, validate(g, HeightFunction(values=h, root=fam.root, mode=fam.mode, M=fam.M))[0]


def _check_images(g: Graph, ctxs: Contexts, omega, root: int, sizes, family) -> _ImageChecks:
    """Build the images of rows omega of ctxs, a block of members at a time,
    and check every member: validity (edge gaps, root and parity columns),
    u_recovery and reconstruction as column operations, and membership of
    the family rows by key lookup.  A member's key is its rank among the
    family rows' keys, or a number from len(family) up for members outside
    the family."""
    lip = ctxs.mode == "lipschitz"
    M, v = ctxs.M, ctxs.v
    names = ["image_members_valid", "reconstruction"] + (["u_recovery"] if lip else [])
    ok = {name: np.ones(omega.size, dtype=bool) for name in names}
    stop: dict[str, dict] = {name: {} for name in names}
    in_family = np.ones(omega.size, dtype=bool)
    pairs = [(np.zeros(0, dtype=np.int64),) * 2]

    q = family.shape[0]
    family_keys = np.sort(_row_keys(family))
    limits = np.iinfo(family.dtype)
    outside: dict[bytes, int] = {}
    edges = np.array(g.edges(), dtype=np.int64).reshape(-1, 2)
    nbr = _neighbour_table(g)
    if not lip:
        # the reconstruction's anchor: the first vertex of A adjacent to X
        anchor = np.zeros(len(ctxs.a_sets), dtype=np.int64)
        for a in np.unique(ctxs.a_id[omega]).tolist():
            x_set = ctxs.x_sets[a]
            anchor[a] = next(w for w in ctxs.a_sets[a] if any(x in x_set for x in g.adj[w]))

    ends = np.cumsum(sizes)
    step = max(1, BLOCK_VALUES // nbr.size)
    start = 0
    while start < omega.size:
        done = ends[start - 1] if start else 0
        end = max(start + 1, int(np.searchsorted(ends, done + step, side="right")))
        members, owner = image_rows(ctxs, omega[start:end], root)
        pos = owner + start
        row = omega[pos]
        ids = ctxs.a_id[row]
        in_a, in_x = ctxs.a_mask[ids], ctxs.x_mask[ids]

        # validate's parity rule on the root's class follows from the edge
        # gaps and the root value, the family's graph being connected
        gap = np.abs(members[:, edges[:, 0]] - members[:, edges[:, 1]])
        valid = (members[:, root] == 0) & ((gap <= M) if lip else (gap == 1)).all(axis=1)
        flags = {"image_members_valid": valid}
        if lip:
            # u_x = min({h(w) - h(v) + 2M : w ~ x outside A u X} u {M})
            low = _gather(np.where(in_a | in_x, _BIG, members), nbr, _BIG).min(axis=2)
            u = np.minimum(low - members[:, [v]] + 2 * M, M)
            flags["u_recovery"] = ((u == ctxs.u[row]) | ~in_x).all(axis=1)
            shift = ctxs.k[row] + M - members[:, v]
        else:
            shift = ctxs.k[row] - members[np.arange(members.shape[0]), anchor[ids]]
        # f = h + shift off A u X
        flags["reconstruction"] = (
            (members + shift[:, None] == ctxs.values[row]) | in_a | in_x
        ).all(axis=1)

        key = np.full(members.shape[0], -1, dtype=np.int64)
        fits = ((members >= limits.min) & (members <= limits.max)).all(axis=1)
        probe = _row_keys(members[fits].astype(family.dtype))
        at = np.minimum(np.searchsorted(family_keys, probe), q - 1)
        key[fits] = np.where(family_keys[at] == probe, at, -1)
        for i in np.flatnonzero(key < 0).tolist():
            key[i] = outside.setdefault(members[i].tobytes(), q + len(outside))
        in_family[pos[key >= q]] = False
        pairs.append(_distinct_pairs(pos, key)[:2])

        every = np.logical_and.reduce(list(flags.values()))
        for name, flag in flags.items():
            ok[name][pos[~flag]] = False
        for j in np.unique(pos[~every]).tolist():
            mine = pos == j
            image = _image_set(members[mine])
            flag_of = dict(
                zip(map(tuple, members[mine].tolist()), zip(*(flags[name][mine] for name in names)))
            )
            for c, name in enumerate(names):
                bad = next(((i, h) for i, h in enumerate(image, 1) if not flag_of[h][c]), None)
                if bad is not None:
                    stop[name][j] = bad
        start = end

    pairs = tuple(map(np.concatenate, zip(*pairs)))
    return _ImageChecks(
        distinct=np.bincount(pairs[0], minlength=omega.size),
        in_family=in_family,
        ok=ok,
        stop=stop,
        pairs=pairs,
    )
