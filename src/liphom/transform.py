"""The few-to-many transformation on high-deviation height functions, and
the exhaustive verifier that checks its counting properties on enumerable
instances.

Everything works on arrays: ``build_contexts`` builds the contexts of a
block of rows, ``image_rows`` lays the image members of a batch of contexts
out as the rows of one int array, and ``verify_counting`` checks them with
column operations.  ``Contexts`` is the one context type:
``build_context`` returns the one-row ``Contexts`` of a single row of
values, and ``apply_transform`` takes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .expansion import CheckResult
from .graphs import Graph, GraphError, ball, check_vertex, neighbour_table
from .heights import family_slope, phases_hom, phases_lipschitz, validate
from .samplers import BLOCK_VALUES, enumerate_functions

__all__ = [
    "ContextError",
    "Contexts",
    "build_context",
    "build_contexts",
    "apply_transform",
    "image_rows",
    "verify_counting",
    "VerifyReport",
]

# stands in for the values a neighbour gather's min / max must skip (far
# from any overflow)
_BIG = np.iinfo(np.int64).max // 4


class ContextError(ValueError):
    pass


@dataclass(frozen=True)
class Contexts:
    """The contexts of a batch of rows, as arrays.  A row's context holds
    the data of one application of the flattening map: threshold level k,
    the component A of v above the threshold in the distance-<=2 graph, its
    outer boundary X, and (Lipschitz only) the bounds ell_x <= f(x)-k <= u_x
    on X; S is the product of {0..u_x} (hom: {-1, 1}) over X.  The
    2-outer boundary Y enters only a claim that ``build_contexts`` checks,
    and is not kept.

    Row i's A and X are the vertex masks ``a_mask[a_id[i]]`` and
    ``x_mask[a_id[i]]``, one row per distinct A.  ell and u are (rows, n)
    arrays, 0 off X (Lipschitz only: zero columns in hom mode).
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
    a_mask: np.ndarray
    x_mask: np.ndarray
    ell: np.ndarray
    u: np.ndarray
    errors: dict[int, str]

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

    def s_minus_sizes(self, idx) -> np.ndarray:
        """|S^-| of rows idx, the product of u_x over X (1 in hom mode), as
        exact Python ints (object array)."""
        in_x = self.x_mask[self.a_id[idx]]
        return np.prod(np.where(in_x, self.radices(idx) - 1, 1).astype(object), axis=1)

    def group_key(self, i: int) -> tuple:
        """Row i's (A, S) as witnesses print it: (A, ((x, u_x), ...)) over
        increasing X, or (A,) in hom mode; A is a frozenset built from its
        increasing vertex ids."""
        a = self.a_id[i]
        a_set = frozenset(np.flatnonzero(self.a_mask[a]).tolist())
        if self.mode == "hom":
            return (a_set,)
        return (a_set, tuple((x, int(self.u[i, x])) for x in np.flatnonzero(self.x_mask[a]).tolist()))


def _preimage_bound(mode: str, M: int | None, a_size: int, s_minus):
    """alpha, the most preimages an image member of one (A, S) group has."""
    return 2 if mode == "hom" else M * (2 * a_size + 1) * (2 * M + 1) ** a_size * s_minus


def _ratio_bound(mode: str, M: int | None, a_size: int, x_size: int) -> Fraction:
    """The corollary's bound for a component A, on both |Omega_{A,S}| /
    |image of Omega_{A,S}| and P(Omega_A^+): alpha / |S| at the largest
    |S^-| / |S|, (M / (M + 1))^|X| (hom: alpha / |S| = 2 / 2^|X|)."""
    if mode == "hom":
        return Fraction(2, 2**x_size)
    return _preimage_bound(mode, M, a_size, Fraction(M, M + 1) ** x_size)


def _row_keys(a: np.ndarray) -> np.ndarray:
    """One opaque key per row of a 2-d array (its bytes): equal rows, and
    only they, get equal keys, and keys sort."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def _near(mask: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """N(.) of each row of a (rows, n) vertex mask, from the
    ``graphs.neighbour_table`` nbr: the vertices with a neighbour in the
    row's set, and the set's isolated vertices, whose column holds only
    themselves (every caller joins the result to the set or removes the set
    from it, so they change nothing)."""
    return mask[:, nbr].any(axis=1)


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

    A depends only on a row's set S of vertices above the threshold, so it
    is grown once per distinct S (keyed by its packed bitmask): from {v},
    A takes in the vertices of S within distance 2 of it until none is
    left, for a block of sets at once.  X = N(A) minus A and Y = N(X) minus
    A and X, and rows share one mask row per distinct A.  The claims and
    ell/u come from gathers of the rows' values over every vertex's
    neighbours, a block of rows at a time.
    """
    rows = np.asarray(rows)
    k = np.asarray(k, dtype=np.int64)
    count, n = rows.shape
    lip = mode == "lipschitz"
    thresh = k + family_slope(mode, M)
    errors: dict[int, str] = {}
    for i in np.flatnonzero(rows[:, v] <= thresh).tolist():
        errors[i] = f"f({v}) = {int(rows[i, v])} does not exceed the threshold {int(thresh[i])}"
    above = rows > thresh[:, None]
    for i in np.flatnonzero(above.all(axis=1)).tolist():
        errors[i] = "every vertex is above the threshold; no grounding vertex"
    todo = np.setdiff1d(np.arange(count), list(errors))

    _, first, inverse = np.unique(
        _row_keys(np.packbits(above[todo], axis=1)), return_index=True, return_inverse=True
    )
    nbr = neighbour_table(g)
    step = max(1, BLOCK_VALUES // nbr.size)
    shells = np.zeros((3, first.size, n), dtype=bool)  # A, X, Y per distinct S
    for start in range(0, first.size, step):
        s = above[todo[first[start : start + step]]]
        comp = np.zeros_like(s)
        comp[:, v] = True
        while True:
            grown = comp | _near(comp | _near(comp, nbr), nbr) & s
            if (grown == comp).all():
                break
            comp = grown
        x = _near(comp, nbr) & ~comp
        shells[:, start : start + step] = comp, x, _near(x, nbr) & ~(comp | x)
    _, a_first, a_of_s = np.unique(
        _row_keys(np.packbits(shells[0], axis=1)), return_index=True, return_inverse=True
    )
    a_mask, x_mask, y_mask = shells[:, a_first]
    a_id = np.full(count, -1, dtype=np.int64)
    a_id[todo] = a_of_s[inverse]

    width = n if lip else 0
    bound_dtype = np.min_scalar_type(M) if lip else np.uint8  # ell, u lie in 1..M
    ell = np.zeros((count, width), dtype=bound_dtype)
    u = np.zeros((count, width), dtype=bound_dtype)
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
        u_b = np.minimum(np.where(in_a | in_x, _BIG, vals + M - kk)[:, nbr].min(axis=1), M)
        ell_b = np.where(in_a, vals - M - kk, -_BIG)[:, nbr].max(axis=1)
        off = vals - kk
        chain = (1 <= ell_b) & (ell_b <= off) & (off <= u_b) & (u_b <= M) | ~in_x
        for j in np.flatnonzero(good & ~chain.all(axis=1)).tolist():
            x = int(np.argmin(chain[j]))  # the lowest failing vertex of X
            errors[int(idx[j])] = (
                f"bound chain violated at boundary vertex {x}: "
                f"1 <= {ell_b[j, x]} <= {off[j, x]} <= {u_b[j, x]} <= {M}"
            )
        good &= chain.all(axis=1)
        keep = good[:, None] & in_x
        ell[idx] = np.where(keep, ell_b, 0)
        u[idx] = np.where(keep, u_b, 0)
    return Contexts(
        mode=mode, M=M, v=v, values=rows, k=k, a_id=a_id, a_mask=a_mask, x_mask=x_mask,
        ell=ell, u=u, errors=errors,
    )


def build_context(g: Graph, values, v: int, k: int, mode: str, M: int | None = None) -> Contexts:
    """The one-row Contexts of one function (one integer per vertex) at
    vertex v and threshold k, asserting the structural claims (values on X
    and the 2-boundary; the ell/u chain) before returning."""
    ctx = build_contexts(g, np.array([values], dtype=np.int64), v, [k], mode, M)
    if ctx.errors:
        raise ContextError(ctx.errors[0])
    return ctx


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


def apply_transform(ctx: Contexts, root: int, *, guard: int = 1 << 20) -> frozenset[tuple[int, ...]]:
    """Materialize the full image set of ctx's one function under the
    flattening map, shifted to vanish at ``root``; ctx is the one-row
    Contexts from ``build_context``.  Members are not validated here;
    ``verify_counting`` checks each one.

    Raises when the image would exceed ``guard`` members.
    """
    size = ctx.image_sizes([0])[0]
    if size > guard:
        raise GraphError(f"image has {size} members, beyond the guard {guard}")
    members, _ = image_rows(ctx, [0], root)
    return frozenset(map(tuple, members.tolist()))


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
    u_recovery and reconstruction tick once per distinct image member of
    every function, failing or not.  disjoint_images ticks once per pair of
    (A, S) groups that share an A, so it reads checked 0 when every A has a
    single S, as on the phase-strategy instances tried so far (the
    benchmark's n=12 one among them); k_strategy "zero" instances give such
    pairs.  Functions are checked in family order, groups and A's in order
    of first occurrence.  A per-function witness is the first failing
    function; when it names an image member, that is the function's first
    failing member in ``image_rows`` order.
    """
    if k_strategy not in ("phase", "zero"):
        raise ValueError(f"unknown k strategy {k_strategy!r}")
    if k_strategy == "phase" and lam is None:
        raise ValueError("k strategy 'phase' needs lam")
    if t < 1:
        raise ValueError("t must be at least 1")
    slope = family_slope(mode, M, g)
    for u in (v0, v):
        check_vertex(g, u)
    fam = enumerate_functions(g, v0, mode, M=M, cap=cap)
    rows = fam.rows
    if k_strategy == "zero":
        k_all = np.zeros(rows.shape[0], dtype=np.int64)
    elif mode == "lipschitz":
        k_all = phases_lipschitz(g, rows, lam, M)[0]
    else:
        k_all = phases_hom(g, rows, lam, v0)[0]
    high = np.flatnonzero(rows[:, v] > k_all + t * slope)
    q_size = rows.shape[0]

    names = [
        "context_claims", "ball_in_A", "image_size", "image_members_valid", "preimage_bound",
        "ratio_bound_AS", "ratio_bound_A", "double_counting", "reconstruction", "image_in_family",
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
    checks["context_claims"].tick_all(holds, lambda i: (values(i), ctxs.errors[i]))
    omega = np.flatnonzero(holds)
    a_id = ctxs.a_id[omega]
    a_sizes, x_sizes = ctxs.a_mask.sum(axis=1).tolist(), ctxs.x_mask.sum(axis=1).tolist()
    near = list(ball(g, v, t - 1))
    checks["ball_in_A"].tick_all(ctxs.a_mask[:, near].all(axis=1)[a_id], lambda j: values(omega[j]))
    if g.glue is not None:
        avoids = ~(ctxs.a_mask | ctxs.x_mask)[:, g.glue]
        expands = np.array(x_sizes) > (g.degree - 2) * np.array(a_sizes)
        checks["tree_avoids_leaves"].tick_all(avoids[a_id], lambda j: values(omega[j]))
        checks["tree_expansion"].tick_all(
            expands[a_id], lambda j: (values(omega[j]), a_sizes[a_id[j]], x_sizes[a_id[j]])
        )

    sizes = ctxs.image_sizes(omega)
    over = np.flatnonzero(sizes > guard)
    if over.size:
        raise GraphError(f"image has {sizes[over[0]]} members, beyond the guard {guard}")
    sizes = sizes.astype(np.int64)

    found = _check_images(g, ctxs, omega, v0, sizes, rows)
    checks["image_size"].tick_all(found.distinct == sizes, lambda j: values(omega[j]))
    checks["image_members_valid"].tick_all(
        found.ok["image_members_valid"], lambda j: found.invalid_witness(g, values(omega[j]), fam)
    )
    checks["image_in_family"].tick_all(found.in_family, lambda j: values(omega[j]))
    for name in ("u_recovery", "reconstruction"):
        if name in checks:
            checks[name].tick_all(
                found.ok[name],
                lambda j, name=name: (values(omega[j]), found.first_bad[name]),
                found.distinct,
            )

    # the partition by (A, S) (by A in hom mode)
    if mode == "lipschitz":
        group, group_first = _first_occurrence_labels(
            np.column_stack([a_id, ctxs.u[omega]]), axis=0
        )
    else:
        group, group_first = _first_occurrence_labels(a_id)

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
    s_minus = ctxs.s_minus_sizes(omega[group_first])
    for gi, j in enumerate(group_first.tolist()):
        a = a_id[j]
        key0, size = ctxs.group_key(omega[j]), int(members_of[gi])
        alpha = _preimage_bound(mode, M, a_sizes[a], s_minus[gi])
        b, w, un = int(beta[gi]), int(worst[gi]), int(union[gi])
        checks["preimage_bound"].tick(w <= alpha, (key0, w, alpha))
        checks["double_counting"].tick(
            Fraction(size, q_size) <= Fraction(alpha, b), (key0, size, alpha, b)
        )
        checks["ratio_bound_AS"].tick(
            Fraction(size, un) <= _ratio_bound(mode, M, a_sizes[a], x_sizes[a]), (key0, size, un)
        )

    # bound on P(Omega_A^+) per A, and image disjointness across S
    a_label, a_first = _first_occurrence_labels(a_id)
    members_of_a = np.bincount(a_label, minlength=a_first.size)
    for j, first in enumerate(a_first.tolist()):
        a = a_id[first]
        checks["ratio_bound_A"].tick(
            Fraction(int(members_of_a[j]), q_size) <= _ratio_bound(mode, M, a_sizes[a], x_sizes[a]),
            (np.flatnonzero(ctxs.a_mask[a]).tolist(), int(members_of_a[j])),
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
                    (ctxs.group_key(omega[group_first[g1]]), ctxs.group_key(omega[group_first[g2]])),
                )

    return VerifyReport(
        mode=mode, v=v, t=t, family_size=q_size, omega_size=int(omega.size), checks=checks
    )


@dataclass
class _ImageChecks:
    """Per-member checks of the images of the functions of Omega, as one
    outcome per function (indexed by position in Omega)."""

    distinct: np.ndarray  # distinct image members
    in_family: np.ndarray  # every member is a family row
    ok: dict[str, np.ndarray]  # every member passes the check
    # per failed check: the first failing function's first failing member
    first_bad: dict[str, tuple[int, ...]]
    pairs: tuple[np.ndarray, np.ndarray]  # distinct (function, member key) pairs

    def invalid_witness(self, g: Graph, values, fam) -> tuple:
        """(f, its first invalid member, that member's first violation) for
        the first function with an invalid member."""
        h = self.first_bad["image_members_valid"]
        return values, h, validate(g, h, fam.root, fam.mode, fam.M)[0]


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
    first_bad: dict[str, tuple[int, ...]] = {}
    in_family = np.ones(omega.size, dtype=bool)
    pairs = [(np.zeros(0, dtype=np.int64),) * 2]

    q = family.shape[0]
    family_keys = np.sort(_row_keys(family))
    limits = np.iinfo(family.dtype)
    outside: dict[bytes, int] = {}
    edges = np.array(g.edges(), dtype=np.int64).reshape(-1, 2)
    nbr = neighbour_table(g)
    if not lip:
        # the reconstruction's anchor: the lowest vertex of A adjacent to X
        anchor = (ctxs.a_mask & _near(ctxs.x_mask, nbr)).argmax(axis=1)

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
            low = np.where(in_a | in_x, _BIG, members)[:, nbr].min(axis=1)
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

        for name, flag in flags.items():
            bad = np.flatnonzero(~flag)
            ok[name][pos[bad]] = False
            # blocks follow Omega's order, so the first block with a failure
            # holds the first failing function; argmin finds its first member
            if bad.size and name not in first_bad:
                first_bad[name] = tuple(members[bad[np.argmin(pos[bad])]].tolist())
        start = end

    pairs = tuple(map(np.concatenate, zip(*pairs)))
    return _ImageChecks(
        distinct=np.bincount(pairs[0], minlength=omega.size),
        in_family=in_family,
        ok=ok,
        first_bad=first_bad,
        pairs=pairs,
    )
