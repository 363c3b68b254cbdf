"""Expansion parameter computation and certification.

Two routes to the mixing-lemma parameter lambda: an exact search over all
admissible set pairs (tiny graphs only; every S is enumerated as a bitmask,
and for each S and |T| only the two extreme T are scored) and a spectral
certificate from power iteration with the known all-ones top vector
deflated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError, ball, distances_from, neighborhood

__all__ = [
    "ExpansionReport",
    "edge_count",
    "exhaustive_lambda",
    "spectral_lambda",
    "resolve_lambda",
    "goodness",
    "check_expansion_props",
    "certify",
]

EXHAUSTIVE_GUARD_BITS = 24  # bits in a set pair: 2n, or n0 + n1 for bipartite lambda


def edge_count(g: Graph, s, t) -> int:
    """e(S,T): ordered pairs (a,b) in S x T with {a,b} an edge."""
    s = set(s)
    t = set(t)
    return sum(1 for a in s for b in g.adj[a] if b in t)


def _require_regular(g: Graph) -> int:
    if g.degree is None:
        raise GraphError("operation requires a regular graph")
    return g.degree


def _all_subset_sums(c: np.ndarray) -> np.ndarray:
    """sums[mask] = sum of the rows c[w] over bits w set in mask; O(m 2^m)."""
    m = len(c)
    sums = np.zeros((1 << m, *c.shape[1:]), dtype=c.dtype)
    for w in range(m):
        b = 1 << w
        sums.reshape(-1, 2 * b, *c.shape[1:])[:, b:] += c[w]
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


def spectral_lambda(
    g: Graph, mode: str = "general", tol: float = 1e-9, max_iter: int = 100_000
) -> float:
    """Second-largest absolute adjacency eigenvalue (general) or second
    singular value of the biadjacency (bipartite), by power iteration with
    the all-ones top vector deflated.  The result plus tol upper-bounds the
    mixing-lemma lambda.
    """
    d = _require_regular(g)
    indptr = np.cumsum([0, *map(len, g.adj)])
    indices = np.fromiter((w for nbrs in g.adj for w in nbrs), dtype=np.int64, count=indptr[-1])

    def matvec(x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(x[indices], indptr[:-1])

    def deflate(y):
        return y - y.mean()

    if mode == "general":
        dim = g.n

        def op(x):
            return matvec(deflate(matvec(x)))  # A^2 avoids +-pair oscillation

    elif mode == "bipartite":
        if g.bipartition is None:
            raise GraphError("bipartite mode requires a bipartition")
        v0 = np.array(sorted(g.bipartition[0]), dtype=np.int64)
        v1 = np.array(sorted(g.bipartition[1]), dtype=np.int64)
        dim = len(v1)

        def op(x):
            full = np.zeros(g.n)
            full[v1] = x
            full = matvec(full)  # now supported on v0
            keep = np.zeros(g.n)
            keep[v0] = full[v0]
            return matvec(keep)[v1]  # B^T B x

    else:
        raise ValueError(f"unknown mode {mode!r}")

    rng = np.random.default_rng(20240527)
    x = deflate(rng.standard_normal(dim))
    nrm = np.linalg.norm(x)
    if nrm == 0:
        return 0.0
    x /= nrm
    est = 0.0
    for it in range(max_iter):
        y = deflate(op(x))
        nrm = np.linalg.norm(y)
        if nrm <= 1e-14 * (d * d):
            return 0.0
        new_est = float(x @ y)  # Rayleigh quotient for A^2 resp. B^T B
        x = y / nrm
        if it > 0 and abs(new_est - est) <= tol * max(1.0, abs(new_est)):
            est = new_est
            break
        est = new_est
    return math.sqrt(max(est, 0.0))


def resolve_lambda(g: Graph, height_mode: str, source: str, value: float | None = None) -> float:
    """The lambda used for phases of height functions in ``height_mode``.

    ``source`` is "explicit" (returns ``value``), "exhaustive" (exact
    lambda) or "spectral" (power-iteration value plus its tolerance 1e-9).
    Lipschitz functions use general-mode lambda, homomorphisms bipartite.
    """
    if source == "explicit":
        if value is None:
            raise ValueError("an explicit lambda needs a value")
        return value
    lam_mode = "bipartite" if height_mode == "hom" else "general"
    if source == "exhaustive":
        return exhaustive_lambda(g, lam_mode)
    if source == "spectral":
        tol = 1e-9
        return spectral_lambda(g, lam_mode, tol=tol) + tol
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


@dataclass
class ExpansionReport:
    lambda_spectral: float
    lambda_exhaustive: float | None
    d: int
    n: int
    mode: str
    predicates: dict[str, bool]


def certify(g: Graph, M: int | None = None, *, tol: float = 1e-9) -> ExpansionReport:
    """Compute spectral (always) and exhaustive (when feasible) lambda and
    evaluate the goodness predicates at the certified spectral value."""
    d = _require_regular(g)
    mode = "bipartite" if g.bipartition is not None else "general"
    lam_s = spectral_lambda(g, mode, tol=tol)
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
        predicates=goodness(d, lam_s + tol, M),
    )


def _subset_iter(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield [items[i] for i in range(len(items)) if (mask >> i) & 1]


def check_expansion_props(g: Graph, lam: float, mode: str = "general") -> dict[str, CheckResult]:
    """Check the expansion propositions as executable inequalities.

    Verifies connectivity of large set pairs, neighborhood expansion, outer
    boundary growth, ball volume growth and the diameter bound, for all
    admissible sets (tiny graphs only).  Division-by-zero cases use the
    convention min{n/2, inf}.
    """
    if mode not in ("general", "bipartite"):
        raise ValueError(f"unknown mode {mode!r}")
    d = _require_regular(g)
    if 2 * g.n > EXHAUSTIVE_GUARD_BITS:  # both modes list all 2^n subsets of V
        raise GraphError("graph too large for exhaustive checks")
    if mode == "bipartite":
        if g.bipartition is None:
            raise GraphError("bipartite mode requires a bipartition")
        n = len(g.bipartition[0])
    else:
        n = g.n

    ratio = math.inf if lam == 0 else (d * d) / (4 * lam * lam)
    checks = {
        name: CheckResult(name)
        for name in ("connectivity", "expansion", "boundary", "volume_growth", "diameter")
    }

    all_sets = [frozenset(s) for s in _subset_iter(range(g.n))]
    if mode == "general":
        pairs = ((a, b) for a in all_sets for b in all_sets)
    else:
        sets0 = [frozenset(s) for s in _subset_iter(sorted(g.bipartition[0]))]
        sets1 = [frozenset(s) for s in _subset_iter(sorted(g.bipartition[1]))]
        pairs = ((a, b) for a in sets0 for b in sets1)

    # connectivity: min(|A|,|B|) > lam*n/d forces an edge between A and B
    thresh = lam * n / d
    con = checks["connectivity"]
    for a, b in pairs:
        if min(len(a), len(b)) > thresh:
            con.tick(edge_count(g, a, b) != 0, (sorted(a), sorted(b)))

    # expansion and boundary
    exp_c = checks["expansion"]
    bd_c = checks["boundary"]
    for a in all_sets:
        if not a:
            continue
        na = neighborhood(g, a)
        bound = min(n / 2, ratio * len(a))
        exp_c.tick(len(na) >= bound - 1e-12, sorted(a))
        if len(a) <= n / 4:
            bbound = min(n / 4, (ratio - 1) * len(a)) if ratio != math.inf else n / 4
            bd_c.tick(len(na - a) >= bbound - 1e-12, sorted(a))

    # volume growth and diameter
    vg = checks["volume_growth"]
    growth = math.inf if lam == 0 else (d / (2 * lam)) ** 2
    dist_all = [distances_from(g, v) for v in range(g.n)]
    diam = max(max(row) for row in dist_all)
    tmax = diam + 1
    for v in range(g.n):
        for t in range(tmax + 1):
            bound = min(n / 2, growth**t) if growth != math.inf else (n / 2 if t > 0 else 1)
            vg.tick(len(ball(g, v, t)) >= bound - 1e-12, (v, t))

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
