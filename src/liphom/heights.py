"""M-Lipschitz and homomorphism height functions, validation and phases."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphError

__all__ = [
    "HeightFunction",
    "Phase",
    "PhaseError",
    "lipschitz",
    "homomorphism",
    "validate",
    "phase_lipschitz",
    "phase_hom",
    "hom_far_count",
    "deviation",
]


class PhaseError(ValueError):
    """No level satisfies the phase count bound (invalid lambda)."""


@dataclass(frozen=True)
class HeightFunction:
    """Integer value per vertex, pinned to 0 at the root vertex.

    mode is "lipschitz" (with slope M) or "hom".
    """

    values: tuple[int, ...]
    root: int
    mode: str
    M: int | None = None

    def __post_init__(self):
        if self.mode not in ("lipschitz", "hom"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "lipschitz" and (self.M is None or self.M < 1):
            raise ValueError("lipschitz mode needs a positive slope M")

    def negate(self) -> "HeightFunction":
        return HeightFunction(
            values=tuple(-x for x in self.values), root=self.root, mode=self.mode, M=self.M
        )

    def __len__(self) -> int:
        return len(self.values)


def lipschitz(values, root: int, M: int) -> HeightFunction:
    return HeightFunction(values=tuple(values), root=root, mode="lipschitz", M=M)


def homomorphism(values, root: int) -> HeightFunction:
    return HeightFunction(values=tuple(values), root=root, mode="hom")


@dataclass(frozen=True)
class Phase:
    """Lipschitz variant: the value interval [lo, hi] (hi = lo + M, or a
    single point for the zero function).  Hom variant: lo == hi == level k
    with the color-class index recorded (0 = class of the root vertex)."""

    lo: int
    hi: int
    class_index: int | None = None

    def negate(self) -> "Phase":
        return Phase(lo=-self.hi, hi=-self.lo, class_index=self.class_index)

    def dist(self, value: int) -> int:
        if value < self.lo:
            return self.lo - value
        if value > self.hi:
            return value - self.hi
        return 0


def validate(g: Graph, f: HeightFunction) -> list[str]:
    """Violation messages; empty iff f is a member of its declared family."""
    out = []
    if len(f.values) != g.n:
        return [f"value vector has length {len(f.values)}, graph has {g.n} vertices"]
    if f.values[f.root] != 0:
        out.append(f"root vertex {f.root} has value {f.values[f.root]}, expected 0")
    if f.mode == "hom" and g.bipartition is None:
        out.append("hom mode requires a bipartite graph")
        return out
    for u in range(g.n):
        for w in g.adj[u]:
            if u < w:
                gap = abs(f.values[u] - f.values[w])
                if f.mode == "lipschitz" and gap > f.M:
                    out.append(f"edge ({u},{w}): |{f.values[u]} - {f.values[w]}| > M={f.M}")
                elif f.mode == "hom" and gap != 1:
                    out.append(f"edge ({u},{w}): |{f.values[u]} - {f.values[w]}| != 1")
    if f.mode == "hom" and g.bipartition is not None and not out:
        side0 = g.bipartition[0] if f.root in g.bipartition[0] else g.bipartition[1]
        for v in side0:
            if f.values[v] % 2 != 0:
                out.append(f"vertex {v} in the root's color class has odd value")
    return out


def phase_lipschitz(g: Graph, f: HeightFunction, lam: float) -> Phase:
    """Phase interval of a Lipschitz function, constructed so that
    phase(-f) = -phase(f).

    For the lexicographically larger of {f, -f}, the interval base is the
    minimal k with |{v : f(v) outside {k..k+M}}| <= 2*lambda*n/d; the other
    sign gets the negated interval.  The zero function has phase {0}.

    f is the larger of {f, -f} iff its first nonzero value is positive.  The
    scan then runs windows {x-M..x} upward from min(f); otherwise it runs
    windows {x..x+M} downward from max(f), which is the negated scan of -f.
    Each value x is counted once, and the scan stops at the first window
    that meets the bound or once every vertex has been counted: later
    windows only lose values.
    """
    if f.mode != "lipschitz":
        raise ValueError("phase_lipschitz requires a Lipschitz function")
    d = g.degree
    if d is None:
        raise GraphError("phase requires a regular graph")
    vals = f.values
    first = next(filter(None, vals), 0)
    if not first:
        return Phase(0, 0)
    M = f.M
    budget = 2 * lam * g.n / d
    n = len(vals)
    step = 1 if first > 0 else -1
    x = min(vals) if first > 0 else max(vals)
    counts = []  # counts[i] = |{v : f(v) = x_i}| for the values x_i scanned so far
    seen = inside = 0  # vertices counted so far; vertices in the current window
    while seen < n:
        c = vals.count(x)
        counts.append(c)
        seen += c
        inside += c - (counts[-M - 2] if len(counts) > M + 1 else 0)
        if n - inside <= budget:
            base = x - M if step > 0 else x
            return Phase(base, base + M)
        x += step
    raise PhaseError(
        "no interval satisfies the count bound; lambda is not a valid "
        "expansion parameter for this graph"
    )


def phase_hom(g: Graph, f: HeightFunction, lam: float) -> Phase:
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


def hom_far_count(f: HeightFunction, phase: Phase) -> int:
    """|{v : |f(v) - phase level| >= 2}|."""
    k = phase.lo
    return sum(1 for x in f.values if abs(x - k) >= 2)


def deviation(f: HeightFunction, v: int, phase: Phase) -> int:
    """Distance of f(v) from the phase set."""
    return phase.dist(f.values[v])
