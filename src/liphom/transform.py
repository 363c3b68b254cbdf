"""The few-to-many transformation on high-deviation height functions, and
the exhaustive verifier that checks its counting properties on enumerable
instances."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import Graph, GraphError, ball, boundary, component_in_square
from .heights import HeightFunction, Phase, phase_hom, phase_lipschitz, validate
from .samplers import enumerate_functions

__all__ = [
    "TransformContext",
    "ContextError",
    "build_context",
    "apply_transform",
    "verify_counting",
    "VerifyReport",
]


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

    def s_signature(self) -> tuple:
        """Hashable identity of the product set S (for partitioning)."""
        if self.mode == "hom":
            return tuple(sorted(self.X))
        return tuple(sorted(self.u.items()))


def build_context(g: Graph, f: HeightFunction, v: int, k: int) -> TransformContext:
    """Assemble the context for f at vertex v and threshold k, asserting the
    structural claims (values on A, X and the 2-boundary; the ell/u chain)
    before returning."""
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
    xs = sorted(ctx.X)
    vals = f.values
    k, M = ctx.k, ctx.M
    if ctx.mode == "hom":
        ranges = [(-1, 1)] * len(xs)
    else:
        ranges = [tuple(range(ctx.u[x] + 1)) for x in xs]
    out = set()
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
        out.add(tuple(val - shift for val in h))
    return frozenset(out)


@dataclass
class CheckResult:
    name: str
    checked: int = 0
    passed: bool = True
    witness: object = None

    def tick(self, ok: bool, witness=None) -> None:
        self.checked += 1
        if not ok:
            self.passed = False
            if self.witness is None:
                self.witness = witness


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


def _threshold_level(
    g: Graph, f: HeightFunction, k_strategy: str, lam: float | None
) -> int:
    if k_strategy == "zero":
        return 0
    if k_strategy != "phase":
        raise ValueError(f"unknown k strategy {k_strategy!r}")
    if f.mode == "lipschitz":
        return phase_lipschitz(g, f, lam).lo
    return phase_hom(g, f, lam).lo


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
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    res = enumerate_functions(g, v0, mode, M=M, cap=cap)
    family = res.functions
    codomain = {f.values for f in family}
    slope = M if mode == "lipschitz" else 1

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
    omega: list[tuple[HeightFunction, TransformContext]] = []
    for f in family:
        k = _threshold_level(g, f, k_strategy, lam)
        if f.values[v] <= k + t * slope:
            continue
        try:
            ctx = build_context(g, f, v, k)
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

    groups: dict[tuple, list[tuple[HeightFunction, TransformContext]]] = {}
    for f, ctx in omega:
        key = (ctx.A, ctx.s_signature()) if mode == "lipschitz" else (ctx.A,)
        groups.setdefault(key, []).append((f, ctx))

    by_a: dict[frozenset, list[tuple]] = {}
    for f, ctx in omega:
        by_a.setdefault(ctx.A, []).append((f, ctx))

    images_by_group: dict[tuple, set] = {}
    q_size = len(family)

    for key, members in groups.items():
        union_image: set = set()
        preimage_count: dict[tuple, int] = {}
        ctx0 = members[0][1]
        for f, ctx in members:
            image = apply_transform(g, f, ctx, guard=guard)
            checks["image_size"].tick(len(image) == ctx.image_size, f.values)
            bad = _first_invalid(g, f, image)
            checks["image_members_valid"].tick(bad is None, bad)
            checks["image_in_family"].tick(
                all(h in codomain for h in image), f.values
            )
            union_image.update(image)
            for h in image:
                preimage_count[h] = preimage_count.get(h, 0) + 1
            if mode == "lipschitz":
                _check_u_recovery(g, f, ctx, image, checks["u_recovery"])
            _check_reconstruction(g, f, ctx, image, checks["reconstruction"])
        images_by_group[key] = union_image

        # preimage bound alpha and the double-counting ratio
        a_size = len(ctx0.A)
        if mode == "lipschitz":
            alpha = M * (2 * a_size + 1) * (2 * M + 1) ** a_size * ctx0.s_minus_size
            cor_bound = Fraction(
                M * (2 * a_size + 1) * (2 * M + 1) ** a_size
            ) * Fraction(M, M + 1) ** len(ctx0.X)
        else:
            alpha = 2
            cor_bound = Fraction(2, 2 ** len(ctx0.X))
        beta = min(ctx.image_size for _, ctx in members)
        worst = max(preimage_count.values())
        checks["preimage_bound"].tick(worst <= alpha, (key, worst, alpha))
        checks["double_counting"].tick(
            Fraction(len(members), q_size) <= Fraction(alpha, beta),
            (key, len(members), alpha, beta),
        )
        checks["ratio_bound_AS"].tick(
            Fraction(len(members), len(union_image)) <= cor_bound,
            (key, len(members), len(union_image)),
        )

    # bound on P(Omega_A^+) per A, and image disjointness across S
    for a_set, members in by_a.items():
        ctx0 = members[0][1]
        a_size = len(a_set)
        x_size = len(ctx0.X)
        if mode == "lipschitz":
            bound = Fraction(
                M * (2 * a_size + 1) * (2 * M + 1) ** a_size
            ) * Fraction(M, M + 1) ** x_size
        else:
            bound = Fraction(2, 2**x_size)
        checks["ratio_bound_A"].tick(
            Fraction(len(members), q_size) <= bound, (sorted(a_set), len(members))
        )

    if mode == "lipschitz":
        keys_by_a: dict[frozenset, list[tuple]] = {}
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


def _first_invalid(g, f, image):
    """(f, member, first violation) for an image member outside f's family,
    or None when every member is valid."""
    for h in image:
        bad = validate(g, HeightFunction(values=h, root=f.root, mode=f.mode, M=f.M))
        if bad:
            return f.values, h, bad[0]
    return None


def _check_u_recovery(g, f, ctx, image, check: CheckResult) -> None:
    """u_x must be recoverable from any image member alone."""
    vals = f.values
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


def _check_reconstruction(g, f, ctx, image, check: CheckResult) -> None:
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
