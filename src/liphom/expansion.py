"""Expansion parameter computation and the expansion-property checks.

Two routes to the mixing-lemma parameter lambda: an exact search over all
admissible set pairs (tiny graphs only; every S is enumerated as a bitmask,
and for each S and |T| only the two extreme T are scored) and a spectral
estimate from power iteration with the known all-ones top vector deflated.
The estimate is a Rayleigh quotient, so it can fall below the true value:
it is not an upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, distances_from, neighbour_table

__all__ = [
    "ExpansionReport",
    "exhaustive_lambda",
    "spectral_lambda",
    "check_lambda",
    "resolve_lambda",
    "goodness",
    "check_expansion_props",
    "certify",
]

EXHAUSTIVE_GUARD_BITS = 24  # bits in a set pair: 2n, or n0 + n1 for bipartite lambda
SPECTRAL_TOL = 1e-9  # power iteration's relative stopping tolerance, added to its value
SPECTRAL_MAX_ITER = 100_000


def _require_regular(g: Graph) -> int:
    if g.degree is None:
        raise GraphError("operation requires a regular graph with at least one edge")
    return g.degree


def _all_subset_sums(c: np.ndarray, op=np.add) -> np.ndarray:
    """sums[mask] = the rows c[w] over bits w set in mask, combined with the
    ufunc op (whose identity must be 0; mask 0 gets 0); O(m 2^m)."""
    m = len(c)
    sums = np.zeros((1 << m, *c.shape[1:]), dtype=c.dtype)
    for w in range(m):
        b = 1 << w
        upper = sums.reshape(-1, 2 * b, *c.shape[1:])[:, b:]
        op(upper, c[w], out=upper)
    return sums


def exhaustive_lambda(g: Graph, mode: str = "general") -> float:
    """Exact lambda: max over nonempty (S,T) of |e(S,T) - (d/n)|S||T|| / sqrt(|S||T|).

    General mode ranges over all vertex-set pairs with n the vertex count;
    bipartite mode ranges over pairs of subsets of opposite color classes
    with n the class size.  Guarded to small graphs.

    For fixed S, e(S,T) is the sum over j in T of c[j] = e(S, {right[j]}), so
    over the T of size k it runs from the sum of the k smallest c[j] to the
    sum of the k largest.  Float rounding is monotone, so the largest
    deviation for (S, k) is taken at one of these two ends, and no T is
    enumerated.
    """
    d = _require_regular(g)
    if mode == "general":
        if 2 * g.n > EXHAUSTIVE_GUARD_BITS:
            raise GraphError(f"graph too large for exhaustive lambda (2n={2 * g.n})")
        left = list(range(g.n))
        right = list(range(g.n))
        norm = d / g.n
    elif mode == "bipartite":
        if g.bipartition is None:
            raise GraphError("bipartite mode requires a bipartition")
        v0, v1 = (sorted(g.bipartition[0]), sorted(g.bipartition[1]))
        if len(v0) + len(v1) > EXHAUSTIVE_GUARD_BITS:
            raise GraphError("graph too large for exhaustive lambda")
        left, right = v0, v1
        norm = d / len(v0)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    right_pos = {v: j for j, v in enumerate(right)}
    counts = np.zeros((len(left), len(right)), dtype=np.int64)
    for i, u in enumerate(left):
        for x in g.adj[u]:
            j = right_pos.get(x)
            if j is not None:
                counts[i, j] += 1
    # row S-1 of c: e(S, {w}) for the w in right, in ascending order
    c = _all_subset_sums(counts)[1:]
    c.sort(axis=1)
    lo = np.cumsum(c, axis=1)  # column k-1: sum of the k smallest
    hi = np.cumsum(c[:, ::-1], axis=1)  # and of the k largest
    s = _all_subset_sums(np.ones(len(left), dtype=np.int64))[1:, None]
    k = np.arange(1, len(right) + 1)
    expected = norm * s * k
    return float((np.maximum(hi - expected, expected - lo) / np.sqrt(s * k)).max(initial=0.0))


def _pairwise_rows(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of the (m, n) array x, each column added in the
    order np.add.reduce uses for a 1-D array of m: a plain loop below 8,
    eight running sums combined as a tree up to 128, and halves rounded
    down to a multiple of 8 above that."""
    m = len(x)
    if m < 8:
        return np.add.reduce(x, axis=0)
    if m <= 128:
        body = m - m % 8
        r = np.add.reduce(x[:body].reshape(-1, 8, x.shape[1]), axis=0)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for row in x[body:]:
            total += row
        return total
    half = m // 2
    half -= half % 8
    return _pairwise_rows(x[:half]) + _pairwise_rows(x[half:])


def spectral_lambda(g: Graph, mode: str = "general") -> float:
    """Second-largest absolute adjacency eigenvalue (general) or second
    singular value of the biadjacency (bipartite), by power iteration with
    the all-ones top vector deflated.  The result is an estimate of the
    mixing-lemma lambda: a Rayleigh quotient can fall below the eigenvalue,
    by more than the relative stopping tolerance SPECTRAL_TOL, so neither it
    nor it plus SPECTRAL_TOL is an upper bound.

    Every vertex must have exactly d neighbours (a glued tree's glue vertex
    does not), so that ``graphs.neighbour_table`` holds them unpadded, in d
    rows.  Row v of a product is x[nbr[0, v]] plus the pairwise sum of the
    other d - 1 gathered terms, the order in which np.add.reduceat sums
    g.adj[v]: the value is bit for bit that of a per-vertex reduceat
    product.
    """
    d = _require_regular(g)
    for v, nbrs in enumerate(g.adj):
        if len(nbrs) != d:
            raise GraphError(f"vertex {v} has degree {len(nbrs)}, not the graph's d={d}")
    nbr = neighbour_table(g)

    def matvec(x: np.ndarray, table: np.ndarray) -> np.ndarray:
        terms = x.take(table)
        return terms[0] + _pairwise_rows(terms[1:])

    def deflate(y):
        return y - y.mean()

    if mode == "general":
        dim = g.n

        def op(x):
            return matvec(deflate(matvec(x, nbr)), nbr)  # A^2 avoids +-pair oscillation

    elif mode == "bipartite":
        if g.bipartition is None:
            raise GraphError("bipartite mode requires a bipartition")
        v0, v1 = (sorted(part) for part in g.bipartition)
        pos = np.empty(g.n, dtype=np.int64)
        pos[v0] = np.arange(len(v0))
        pos[v1] = np.arange(len(v1))
        # rows of V0 read x by position in V1, rows of V1 read B x by position in V0
        to_v1 = np.ascontiguousarray(pos[nbr[:, v0]])
        to_v0 = np.ascontiguousarray(pos[nbr[:, v1]])
        dim = len(v1)

        def op(x):
            return matvec(matvec(x, to_v1), to_v0)  # B^T B x

    else:
        raise ValueError(f"unknown mode {mode!r}")

    rng = np.random.default_rng(20240527)
    x = deflate(rng.standard_normal(dim))
    nrm = np.linalg.norm(x)
    if nrm == 0:
        return 0.0
    x /= nrm
    est = 0.0
    for it in range(SPECTRAL_MAX_ITER):
        y = deflate(op(x))
        nrm = np.linalg.norm(y)
        if nrm <= 1e-14 * (d * d):
            return 0.0
        new_est = float(x @ y)  # Rayleigh quotient for A^2 resp. B^T B
        x = y / nrm
        if it > 0 and abs(new_est - est) <= SPECTRAL_TOL * max(1.0, abs(new_est)):
            est = new_est
            break
        est = new_est
    return math.sqrt(max(est, 0.0))


def check_lambda(value: float, name: str) -> float:
    """value, when it is a finite lambda >= 0; name labels the error."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} = {value} must be finite and at least 0")
    return value


def resolve_lambda(g: Graph, height_mode: str, source: str, value: float | None = None) -> float:
    """The lambda used for phases of height functions in ``height_mode``.

    ``source`` is "explicit" (returns ``value``), "exhaustive" (exact
    lambda) or "spectral" (the power-iteration estimate plus its tolerance
    SPECTRAL_TOL).
    Lipschitz functions use general-mode lambda, homomorphisms bipartite.
    """
    if source == "explicit":
        if value is None:
            raise ValueError("an explicit lambda needs a value")
        return check_lambda(value, "explicit lambda")
    lam_mode = "bipartite" if height_mode == "hom" else "general"
    if source == "exhaustive":
        return exhaustive_lambda(g, lam_mode)
    if source == "spectral":
        return spectral_lambda(g, lam_mode) + SPECTRAL_TOL
    raise ValueError(f"unknown lambda source {source!r}")


def lipschitz_threshold(d: int, M: int) -> float:
    return d / (32 * (M + 1) * math.log(9 * M * d * d))


def bi_threshold(d: int) -> float:
    return d / (300 * math.log(d))


def goodness(d: int, lam: float, M: int | None = None) -> dict[str, bool]:
    """Evaluate the quantitative expansion predicates for a given lambda.

    Lipschitz predicate (needs M >= 1): lam <= d / (32(M+1) ln(9 M d^2)).
    Bipartite predicate: lam <= d / (300 ln d).  Natural logs.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    out: dict[str, bool] = {}
    if M is not None:
        if M < 1:
            raise ValueError("slope M must be at least 1")
        out[f"M-good({M})"] = lam <= lipschitz_threshold(d, M)
    out["good-bi"] = d > 1 and lam <= bi_threshold(d)
    return out


@dataclass
class CheckResult:
    """One executable claim: how many cases were checked, whether all held,
    and the first counterexample."""

    name: str
    checked: int = 0
    passed: bool = True
    witness: object = None
    note: str = ""

    def tick(self, ok: bool, witness=None) -> None:
        self.checked += 1
        if not ok:
            self.passed = False
            if self.witness is None:
                self.witness = witness

    def tick_all(self, ok, witness, ticks=None) -> None:
        """Record outcomes ok[0], ok[1], ... in order: one tick each, or
        ticks[i] for entry i when given.  witness(i) gives entry i's witness
        and is called for the first failing entry only."""
        ok = np.asarray(ok, dtype=bool)
        self.checked += int(ok.size if ticks is None else np.sum(ticks))
        if not ok.all():
            self.passed = False
            if self.witness is None:
                self.witness = witness(int(np.argmin(ok)))


@dataclass
class ExpansionReport:
    lambda_spectral: float
    lambda_exhaustive: float | None
    d: int
    n: int
    mode: str
    predicates: dict[str, bool]


def certify(g: Graph, M: int | None = None) -> ExpansionReport:
    """Compute spectral (always) and exhaustive (when feasible) lambda and
    evaluate the goodness predicates at the spectral estimate plus
    SPECTRAL_TOL, the value ``resolve_lambda`` uses."""
    d = _require_regular(g)
    mode = "bipartite" if g.bipartition is not None else "general"
    lam_s = spectral_lambda(g, mode)
    try:
        lam_e = exhaustive_lambda(g, mode)
    except GraphError:
        lam_e = None
    n = len(g.bipartition[0]) if mode == "bipartite" else g.n
    return ExpansionReport(
        lambda_spectral=lam_s,
        lambda_exhaustive=lam_e,
        d=d,
        n=n,
        mode=mode,
        predicates=goodness(d, lam_s + SPECTRAL_TOL, M),
    )


def _members(mask: int, items) -> list:
    """The items at the bits set in mask, in order."""
    return [x for i, x in enumerate(items) if mask >> i & 1]


def check_expansion_props(g: Graph, lam: float, mode: str = "general") -> dict[str, CheckResult]:
    """Check the expansion propositions as executable inequalities.

    Verifies connectivity of large set pairs, neighborhood expansion, outer
    boundary growth, ball volume growth and the diameter bound, for all
    admissible sets (tiny graphs only).  Division-by-zero cases use the
    convention min{n/2, inf}.

    Sets are bitmasks over a sorted vertex list, checked in mask order, and
    N(A) of every A comes from one bitwise-or pass over all masks.  A pair
    (A, B) with |A|, |B| > lambda*n/d fails connectivity iff B avoids N(A):
    such an A fails iff more than lambda*n/d vertices of B's side avoid N(A),
    and its first failing B is the lowest floor(lambda*n/d) + 1 of them.
    """
    if mode not in ("general", "bipartite"):
        raise ValueError(f"unknown mode {mode!r}")
    d = _require_regular(g)
    if 2 * g.n > EXHAUSTIVE_GUARD_BITS:  # both modes list all 2^n subsets of V
        raise GraphError("graph too large for exhaustive checks")
    vertices = list(range(g.n))
    if mode == "bipartite":
        if g.bipartition is None:
            raise GraphError("bipartite mode requires a bipartition")
        left, right = (sorted(part) for part in g.bipartition)
        n = len(left)
    else:
        left = right = vertices
        n = g.n

    ratio = math.inf if lam == 0 else (d * d) / (4 * lam * lam)
    checks = {
        name: CheckResult(name)
        for name in ("connectivity", "expansion", "boundary", "volume_growth", "diameter")
    }
    size = _all_subset_sums(np.ones(g.n, dtype=np.int64))  # popcount of every mask

    def reach(items, targets) -> np.ndarray:
        """N(A) as a mask over targets, for every mask A over items."""
        pos = {w: j for j, w in enumerate(targets)}
        rows = [sum(1 << pos[w] for w in set(g.adj[u]) if w in pos) for u in items]
        return _all_subset_sums(np.array(rows, dtype=np.int64), np.bitwise_or)

    # connectivity: min(|A|,|B|) > lam*n/d forces an edge between A and B
    thresh = lam * n / d
    big_a = np.flatnonzero(size[: 1 << len(left)] > thresh)
    big_b = int(np.count_nonzero(size[: 1 << len(right)] > thresh))
    avoid = ((1 << len(right)) - 1) & ~reach(left, right)[big_a]

    def con_witness(i):
        b_size = max(0, math.floor(thresh) + 1)
        return _members(int(big_a[i]), left), _members(int(avoid[i]), right)[:b_size]

    checks["connectivity"].tick_all(
        size[avoid] <= thresh, con_witness, np.full(big_a.size, big_b)
    )

    # expansion and boundary, over every nonempty A
    a = np.arange(1, 1 << g.n)
    a_size = size[1:]
    na = reach(vertices, vertices)[1:]
    checks["expansion"].tick_all(
        size[na] >= np.minimum(n / 2, ratio * a_size) - 1e-12,
        lambda i: _members(i + 1, vertices),
    )
    small = np.flatnonzero(a_size <= n / 4)
    bbound = np.minimum(n / 4, (ratio - 1) * a_size[small]) if ratio != math.inf else n / 4
    checks["boundary"].tick_all(
        size[na[small] & ~a[small]] >= bbound - 1e-12,
        lambda i: _members(int(small[i]) + 1, vertices),
    )

    # volume growth and diameter
    growth = math.inf if lam == 0 else (d / (2 * lam)) ** 2
    dist = np.array([distances_from(g, v) for v in range(g.n)])
    diam = int(dist.max())
    bounds = [
        min(n / 2, growth**t) if growth != math.inf else (n / 2 if t > 0 else 1)
        for t in range(diam + 2)
    ]
    radii = np.arange(len(bounds))
    # |ball(v, t)| = #{w : 0 <= dist(v, w) <= t}, for every v and t
    volume = ((dist[:, None, :] >= 0) & (dist[:, None, :] <= radii[:, None])).sum(axis=2)
    checks["volume_growth"].tick_all(
        (volume >= np.array(bounds) - 1e-12).ravel(), lambda i: divmod(i, radii.size)
    )

    dm = checks["diameter"]
    applicable = lam > 0 and (lam < d / 2 if mode == "general" else lam <= d / 8)
    if applicable:
        dbound = math.log(n) / math.log(d / (2 * lam))
        if mode == "bipartite":
            dbound += 1
        dm.tick(diam <= dbound + 1e-12, ("diameter", diam, dbound))
    else:
        dm.note = "not applicable (lambda outside the corollary's range)"

    return checks
