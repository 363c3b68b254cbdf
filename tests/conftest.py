"""Shared fixtures: small named graphs and independent brute-force oracles.

The enumeration and phase oracles here deliberately avoid the library's
enumeration and phase machinery: they are plain assignment searches over
explicit value ranges and by-definition phase scans of one function at a
time, used as ground truth.  The exhaustive-lambda oracle scores every set
pair (S, T), not only the extreme T of each S; the spectral-lambda oracle
is a dense eigenvalue (singular value) routine, and the power iteration
with one reduceat product per vertex is kept as the oracle of the old
stopping rule; and the expansion-property oracle walks every subset, and
every (A, B) pair, as frozensets.  The heat-bath rule ``allowed_values``
lists one vertex's values for the Glauber tests.  The flattening-map
oracles build each context, image and check one function and one image
member at a time in Python; the verifier oracle shares only the family enumeration and the
phases with the library, and its context record ``ReferenceContext``
writes out |S|, |S^-|, alpha and the ratio bound from their definitions.
The graph-building oracle checks and adds one edge at a time against a set
of edge tuples, the text oracle parses one line at a time, and the edge-list
oracle walks every adjacency list; the bipartite-generator oracle tests
each drawn matching as a set of edge tuples, and the tree oracle builds complete and glued trees from a
breadth-first queue of parent pointers.  The set-based graph helpers (e(S,
T), N(A), the shells of A, components in the distance-<=2 graph and
connected-set counting) live here: the library builds A and its shells as
vertex masks, and only the oracles and the tests use the sets.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from liphom import build_graph
from liphom.expansion import SPECTRAL_TOL, CheckResult
from liphom.graphs import MAX_VERTICES, Graph, GraphError, ball, check_vertex, distances_from
from liphom.heights import PhaseError, phases_hom, phases_lipschitz, validate
from liphom.samplers import enumerate_functions
from liphom.transform import ContextError, VerifyReport


def k4():
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


# (mode, M, message): what every entry point that takes a family raises on
# k4(), which has no bipartition, in place of any other check
FAMILY_ERRORS = [
    ("homomorphism", None, "unknown mode 'homomorphism'"),
    ("lipschitz", None, "lipschitz mode needs a positive slope M"),
    ("lipschitz", 0, "lipschitz mode needs a positive slope M"),
    ("lipschitz", -2, "lipschitz mode needs a positive slope M"),
    ("hom", None, "hom mode requires a bipartite graph"),
]


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


def edge_count(g, s, t) -> int:
    """e(S,T): ordered pairs (a,b) in S x T with {a,b} an edge."""
    s = set(s)
    t = set(t)
    return sum(1 for a in s for b in g.adj[a] if b in t)


def neighborhood(g, a) -> frozenset[int]:
    """N(A): vertices adjacent to some vertex of A."""
    out = set()
    for u in a:
        out.update(g.adj[u])
    return frozenset(out)


def boundary(g, a) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(N(A), outer boundary, 2-outer boundary) of a vertex set A."""
    a = frozenset(a)
    na = neighborhood(g, a)
    outer = na - a
    nna = neighborhood(g, na)
    outer2 = nna - (a | na)
    return na, outer, outer2


def square_neighbors(g, v: int) -> frozenset[int]:
    """Neighbors of v in the auxiliary distance-<=2 graph."""
    out = set()
    for u in g.adj[v]:
        out.add(u)
        out.update(g.adj[u])
    out.discard(v)
    return frozenset(out)


def component_in_square(g, v: int, s) -> frozenset[int]:
    """Connected component of v in the distance-<=2 graph restricted to S."""
    s = frozenset(s)
    if v not in s:
        raise GraphError(f"vertex {v} is not in the restricting set")
    comp = {v}
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for w in square_neighbors(g, u):
            if w in s and w not in comp:
                comp.add(w)
                frontier.append(w)
    return frozenset(comp)


CONNECTED_SETS_BUDGET = 10_000_000  # search states before count_connected_sets gives up


def count_connected_sets(g, v: int, a: int) -> int:
    """Exact number of connected vertex sets of size a containing v.

    Uses exhaustive growth with an exclusion set, so it is feasible only for
    small a; aborts when the search touches more than
    ``CONNECTED_SETS_BUDGET`` states.
    """
    if a < 1:
        raise GraphError("set size must be at least 1")
    nbrs = [frozenset(g.adj[u]) for u in range(g.n)]

    visited = 0

    def grow(current: set, frontier: list, forbidden: set) -> int:
        nonlocal visited
        visited += 1
        if visited > CONNECTED_SETS_BUDGET:
            raise GraphError("search budget exceeded")
        if len(current) == a:
            return 1
        total = 0
        # classic connected-subgraph enumeration: each frontier vertex is
        # either taken (and extends the frontier) or permanently excluded
        local_forbidden = set(forbidden)
        for i, w in enumerate(frontier):
            current.add(w)
            new_frontier = frontier[i + 1 :] + [
                x for x in nbrs[w] if x not in current and x not in local_forbidden
                and x not in frontier
            ]
            total += grow(current, new_frontier, local_forbidden)
            current.remove(w)
            local_forbidden.add(w)
        return total

    return grow({v}, sorted(nbrs[v]), {v})


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


def allowed_values(g, values, v, mode, M=None):
    """Values the heat-bath move may assign at v given its neighbors: the
    Glauber kernel's update rule, one vertex at a time."""
    nbr = [values[w] for w in g.adj[v]]
    if not nbr:
        raise GraphError(f"vertex {v} has no neighbors")
    mn, mx = min(nbr), max(nbr)
    if mode == "hom":
        if mx - mn == 2:
            return [mn + 1]
        if mx == mn:
            return [mn - 1, mn + 1]
        raise ValueError("state is not a valid homomorphism around this vertex")
    lo, hi = mx - M, mn + M
    if lo > hi:
        raise ValueError("state is not M-Lipschitz around this vertex")
    return list(range(lo, hi + 1))


def reference_build_graph(n: int, edges, *, bipartition: tuple | None = None) -> Graph:
    """``build_graph`` one edge at a time, the way it was first written: each
    pair is checked (integer ids, range, self-loop, repeat) and added to
    Python adjacency lists, and the bipartition is checked by walking every
    sorted list."""
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count n={n} must be between 0 and {MAX_VERTICES}")
    adj = [[] for _ in range(n)]
    seen = set()
    for pair in edges:
        try:
            u, v = pair
            u, v = operator.index(u), operator.index(v)
        except (TypeError, ValueError):
            raise GraphError(f"edge {pair!r} is not a pair of integer vertex ids") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    adj_t = tuple(tuple(sorted(a)) for a in adj)
    degrees = {len(a) for a in adj_t}
    degree = degrees.pop() if len(degrees) == 1 and 0 not in degrees else None
    part = None
    if bipartition is not None:
        part = (frozenset(bipartition[0]), frozenset(bipartition[1]))
        for u in range(n):
            for w in adj_t[u]:
                if (u in part[0]) == (w in part[0]):
                    raise GraphError(f"edge ({u},{w}) does not cross the bipartition")
    return Graph(n=n, adj=adj_t, degree=degree, bipartition=part)


def reference_edges(g) -> list[tuple[int, int]]:
    """``g.edges()`` by walking the adjacency lists."""
    out = [(u, w) for u in range(g.n) for w in g.adj[u] if u < w]
    out.sort()
    return out


def reference_graph_from_text(text: str) -> Graph:
    """``graph_from_text`` one line at a time: split the text into lines,
    drop blank and comment lines, then read the header, the optional
    bipartite line and each edge line with one regular expression per
    number, and build the graph with ``reference_build_graph``."""

    def numbers(fields):
        if all(re.fullmatch(r"[+-]?[0-9]+", f) for f in fields):
            return [int(f) for f in fields]
        return None

    lines = [ln.strip(" \t") for ln in text.replace("\r\n", "\n").split("\n")]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty graph file")
    header = numbers(re.split(r"[ \t]+", lines[0]))
    if header is None or len(header) != 2 or not 0 <= header[0] <= MAX_VERTICES or header[1] < 0:
        raise GraphError(f"bad header line: {lines[0]!r}")
    n, m = header
    idx = 1
    part0 = None
    if idx < len(lines) and lines[idx].startswith("bipartite"):
        fields = numbers(re.split(r"[ \t]+", lines[idx])[1:])
        if not fields or len(fields) not in (1, 1 + fields[0]) or not 0 <= fields[0] <= n:
            raise GraphError(f"bad bipartite line: {lines[idx]!r}")
        part0 = set(fields[1:]) if len(fields) > 1 else set(range(fields[0]))
        if len(part0) != fields[0] or not all(0 <= v < n for v in part0):
            raise GraphError(f"bad bipartite line: {lines[idx]!r}")
        idx += 1
    edges = []
    for ln in lines[idx:]:
        parts = numbers(re.split(r"[ \t]+", ln))
        if parts is None or len(parts) != 2:
            raise GraphError(f"bad edge line: {ln!r}")
        u, v = parts
        if not u < v:
            raise GraphError(f"edge line must have u < v: {ln!r}")
        edges.append((u, v))
    if len(edges) != m:
        raise GraphError(f"header declares {m} edges, file has {len(edges)}")
    if part0 is not None:
        return reference_build_graph(n, edges, bipartition=(part0, set(range(n)) - part0))
    return reference_build_graph(n, edges)


def reference_next_steps(vertices):
    """``_kernels._next_steps`` by a stable argsort of the vertices."""
    size = len(vertices)
    order = np.argsort(vertices, kind="stable")
    by_vertex = vertices[order]
    repeat = by_vertex[1:] == by_vertex[:-1]
    nxt = np.full(size, size)
    nxt[order[:-1][repeat]] = order[1:][repeat]
    return nxt


def reference_bipartite_regular(n: int, d: int, seed: int, max_restarts: int):
    """Sorted edge list of ``gen_random_bipartite_regular(n, d, seed)``, drawn
    the way the generator first did: each matching as n tuples, re-drawn
    when any of them is already in the edge set."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, d, 1)))
    edges: set[tuple[int, int]] = set()
    matchings = 0
    restarts = 0
    while matchings < d:
        perm = rng.permutation(n)
        new = [(i, n + int(perm[i])) for i in range(n)]
        if any(e in edges for e in new):
            restarts += 1
            if restarts > max_restarts:
                raise GraphError("retry budget exhausted generating bipartite regular graph")
            continue
        edges.update(new)
        matchings += 1
    return sorted(edges)


def reference_tree(d: int, h: int, glued: bool = False) -> Graph:
    """``gen_tree(d, h, glued=glued)`` built from a breadth-first queue: each
    vertex popped above depth h takes the next free ids as its children (d
    for the root, d - 1 for the others).  Classes come from depth parity, and
    the glued variant relabels every leaf to the first leaf id, keeping edge
    multiplicities."""
    parent, depth = [None], [0]
    queue = deque([0])
    while queue:
        u = queue.popleft()
        if depth[u] == h:
            continue
        for _ in range(d if u == 0 else d - 1):
            parent.append(u)
            depth.append(depth[u] + 1)
            queue.append(len(parent) - 1)
    leaves = [v for v in range(len(parent)) if depth[v] == h]
    label = list(range(len(parent)))
    if glued:
        for v in leaves:
            label[v] = leaves[0]
    n = max(label) + 1
    adj = [[] for _ in range(n)]
    for v in range(1, len(parent)):
        adj[label[v]].append(parent[v])
        adj[parent[v]].append(label[v])
    degrees = {len(a) for a in adj}
    return Graph(
        n=n,
        adj=tuple(tuple(sorted(a)) for a in adj),
        degree=d if glued else (degrees.pop() if len(degrees) == 1 else None),
        bipartition=tuple(
            frozenset(v for v in range(n) if depth[v] % 2 == c) for c in (0, 1)
        ),
        root=0,
        leaves=frozenset(label[v] for v in leaves),
        glue=leaves[0] if glued else None,
    )


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


def reference_phase_lipschitz(g, values, lam, M):
    """Phase (lo, hi) by definition: canonical sign by comparing f with -f
    as tuples, then the excluded count of every candidate base k in turn."""
    values = tuple(values)
    if all(x == 0 for x in values):
        return (0, 0)
    budget = 2 * lam * g.n / g.degree
    neg = tuple(-x for x in values)
    big = values if values >= neg else neg
    for k in range(min(big) - M, max(big) + 1):
        if sum(1 for x in big if x < k or x > k + M) <= budget:
            return (k, k + M) if big is values else (-k - M, -k)
    raise PhaseError("no interval satisfies the count bound")


def reference_phase_hom(g, values, lam, root):
    """Phase (level, class index) of a homomorphism pinned at ``root``.

    The class index is the smallest i (0 = class of the root) admitting a
    level k with |{v in V_i : f(v) != k}| <= 2*lambda*n/d.  The level is the
    smallest such k for the lexicographically larger of {f, -f}; the other
    sign gets the negated level, so that phase(-f) = -phase(f) holds exactly
    (the smallest-k rule alone breaks the antisymmetry when several levels
    qualify).  When lambda < d/3 the refinement bound
    |{v : |f(v)-k| >= 2}| <= 3*lambda*n/d is asserted as well.
    """
    d = g.degree
    if d is None or g.bipartition is None:
        raise GraphError("phase requires a regular bipartite graph")
    n = g.n // 2
    budget = 2 * lam * n / d
    root_side = 0 if root in g.bipartition[0] else 1
    classes = [
        sorted(g.bipartition[root_side]),
        sorted(g.bipartition[1 - root_side]),
    ]
    values = tuple(values)
    neg = tuple(-x for x in values)
    flip = values < neg  # scan the canonical representative
    big = neg if flip else values
    for i in (0, 1):
        vals = [big[v] for v in classes[i]]
        for k in sorted(set(vals)):
            if sum(1 for x in vals if x != k) <= budget:
                level = -k if flip else k
                if lam < d / 3:
                    far = hom_far_count(values, level)
                    if far > 3 * lam * n / d:
                        raise PhaseError(
                            f"refinement bound violated: {far} > 3*lambda*n/d"
                        )
                return (level, i)
    raise PhaseError(
        "no (class, level) satisfies the count bound; lambda is not a valid "
        "expansion parameter for this graph"
    )


def hom_far_count(values, level):
    """|{v : |f(v) - level| >= 2}|."""
    return sum(1 for x in values if abs(x - level) >= 2)


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


def dense_spectral_lambda(g, mode="general"):
    """The mixing-lemma lambda from the dense matrix: the largest |eigenvalue|
    of A - (d/n)J (general), or the top singular value of B - (d/|V0|)J for
    the biadjacency B between the sorted colour classes (bipartite)."""
    a = np.zeros((g.n, g.n))
    for v, nbrs in enumerate(g.adj):
        for w in nbrs:
            a[v, w] += 1
    if mode == "general":
        return float(np.abs(np.linalg.eigvalsh(a - g.degree / g.n)).max())
    v0, v1 = (sorted(part) for part in g.bipartition)
    b = a[np.ix_(v0, v1)] - g.degree / len(v0)
    return float(np.linalg.svd(b, compute_uv=False)[0])


REFERENCE_SPECTRAL_MAX_ITER = 100_000


def reference_spectral_lambda(g, mode="general", tol=SPECTRAL_TOL):
    """spectral_lambda as it was written before the (d, n) neighbour table:
    a CSR gather with np.add.reduceat per vertex, and in bipartite mode two
    full-n products on zero-padded vectors, stopped when the Rayleigh
    quotient changes by at most tol (relative).  It is the oracle of that
    old stopping rule, which a test shows is not a bound."""
    d = g.degree
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

    else:
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

    rng = np.random.default_rng(20240527)
    x = deflate(rng.standard_normal(dim))
    nrm = np.linalg.norm(x)
    if nrm == 0:
        return 0.0
    x /= nrm
    est = 0.0
    for it in range(REFERENCE_SPECTRAL_MAX_ITER):
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


def reference_check_expansion_props(g, lam, mode="general"):
    """check_expansion_props by the direct walk: every subset as a
    frozenset, in mask order, and connectivity by edge_count over all
    (A, B) pairs of the two sides (4^n pairs in general mode)."""
    if mode not in ("general", "bipartite"):
        raise ValueError(f"unknown mode {mode!r}")
    d = g.degree
    n = len(g.bipartition[0]) if mode == "bipartite" else g.n

    def subsets(items):
        items = list(items)
        return [
            frozenset(items[i] for i in range(len(items)) if mask >> i & 1)
            for mask in range(1 << len(items))
        ]

    ratio = math.inf if lam == 0 else (d * d) / (4 * lam * lam)
    checks = {
        name: CheckResult(name)
        for name in ("connectivity", "expansion", "boundary", "volume_growth", "diameter")
    }
    all_sets = subsets(range(g.n))
    if mode == "general":
        pairs = ((a, b) for a in all_sets for b in all_sets)
    else:
        sides = [subsets(sorted(part)) for part in g.bipartition]
        pairs = ((a, b) for a in sides[0] for b in sides[1])

    thresh = lam * n / d
    for a, b in pairs:
        if min(len(a), len(b)) > thresh:
            checks["connectivity"].tick(edge_count(g, a, b) != 0, (sorted(a), sorted(b)))

    for a in all_sets:
        if not a:
            continue
        na = neighborhood(g, a)
        bound = min(n / 2, ratio * len(a))
        checks["expansion"].tick(len(na) >= bound - 1e-12, sorted(a))
        if len(a) <= n / 4:
            bbound = min(n / 4, (ratio - 1) * len(a)) if ratio != math.inf else n / 4
            checks["boundary"].tick(len(na - a) >= bbound - 1e-12, sorted(a))

    growth = math.inf if lam == 0 else (d / (2 * lam)) ** 2
    diam = max(max(distances_from(g, v)) for v in range(g.n))
    for v in range(g.n):
        for t in range(diam + 2):
            bound = min(n / 2, growth**t) if growth != math.inf else (n / 2 if t > 0 else 1)
            checks["volume_growth"].tick(len(ball(g, v, t)) >= bound - 1e-12, (v, t))

    if lam > 0 and (lam < d / 2 if mode == "general" else lam <= d / 8):
        dbound = math.log(n) / math.log(d / (2 * lam))
        if mode == "bipartite":
            dbound += 1
        checks["diameter"].tick(diam <= dbound + 1e-12, ("diameter", diam, dbound))
    else:
        checks["diameter"].note = "not applicable (lambda outside the corollary's range)"
    return checks


@dataclass(frozen=True)
class ReferenceContext:
    """One application of the flattening map, as sets: threshold level k,
    the component A of v above the threshold in the distance-<=2 graph, its
    shells X and Y, and (Lipschitz only) the bounds ell_x <= f(x)-k <= u_x
    on X, with the corollary's quantities written out from their
    definitions.  values is the function f the context was built from."""

    values: tuple
    mode: str
    k: int
    v: int
    A: frozenset
    X: frozenset
    Y: frozenset
    ell: dict
    u: dict
    M: int | None

    @property
    def image_size(self) -> int:
        """|S|: S is {0..u_x} at each x of X ({-1, 1} in hom mode)."""
        if self.mode == "hom":
            return 2 ** len(self.X)
        return math.prod(self.u[x] + 1 for x in self.X)

    @property
    def s_minus_size(self) -> int:
        """|S^-|: S^- is {1..u_x} at each x of X (a single point in hom mode)."""
        if self.mode == "hom":
            return 1
        return math.prod(self.u[x] for x in self.X)

    @property
    def preimage_bound(self) -> int:
        """alpha = M (2|A| + 1) (2M + 1)^|A| |S^-|; 2 in hom mode."""
        if self.mode == "hom":
            return 2
        M, a = self.M, len(self.A)
        return M * (2 * a + 1) * (2 * M + 1) ** a * self.s_minus_size

    @property
    def ratio_bound(self) -> Fraction:
        """alpha / |S| with every u_x at its largest value M: M (2|A| + 1)
        (2M + 1)^|A| (M / (M + 1))^|X|; 2 / 2^|X| in hom mode."""
        if self.mode == "hom":
            return Fraction(2, 2 ** len(self.X))
        M, a = self.M, len(self.A)
        return Fraction(M * (2 * a + 1) * (2 * M + 1) ** a * M ** len(self.X), (M + 1) ** len(self.X))

    def s_signature(self) -> tuple:
        """The u_x that fix S, as sorted (x, u_x) pairs (X in hom mode)."""
        if self.mode == "hom":
            return tuple(sorted(self.X))
        return tuple(sorted(self.u.items()))


def reference_build_context(g, values, v, k, mode, M=None):
    """The flattening map's context for the function f given by ``values``
    at vertex v and threshold k, built with set operations, asserting the
    structural claims.  A is a frozenset built from its increasing vertex
    ids, and "first" means lowest id: the bound-chain failure named is the
    one at the lowest vertex of X."""
    thresh = k + M if mode == "lipschitz" else k + 1
    vals = tuple(values)
    if vals[v] <= thresh:
        raise ContextError(
            f"f({v}) = {vals[v]} does not exceed the threshold {thresh}"
        )
    inducing = frozenset(w for w in range(g.n) if vals[w] > thresh)
    if len(inducing) == g.n:
        raise ContextError("every vertex is above the threshold; no grounding vertex")
    a = frozenset(sorted(component_in_square(g, v, inducing)))
    _, x_set, y_set = boundary(g, a)

    # structural claims about f on A and its shells
    if not all(vals[w] > thresh for w in a):
        raise ContextError("min f(A) fails to exceed the threshold")
    if mode == "lipschitz":
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
    if mode == "lipschitz":
        ax = a | x_set
        for x in sorted(x_set):
            outside = [vals[w] + M - k for w in g.adj[x] if w not in ax]
            u[x] = min(outside + [M])
            inside = [vals[w] - M - k for w in g.adj[x] if w in a]
            ell[x] = max(inside)
            if not (1 <= ell[x] <= vals[x] - k <= u[x] <= M):
                raise ContextError(
                    f"bound chain violated at boundary vertex {x}: "
                    f"1 <= {ell[x]} <= {vals[x] - k} <= {u[x]} <= {M}"
                )
    return ReferenceContext(
        values=vals, mode=mode, k=k, v=v, A=a, X=x_set, Y=y_set, ell=ell, u=u, M=M
    )


def reference_image_members(ctx, root):
    """The image members of ctx's function under the flattening map, shifted
    to vanish at ``root``, one per s in itertools.product order over sorted
    X."""
    xs = sorted(ctx.X)
    vals = ctx.values
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
        shift = h[root]
        out.append(tuple(val - shift for val in h))
    return out


def reference_image(ctx, root, *, guard=1 << 20):
    """The distinct image members of ctx's function, in order of first
    occurrence in ``reference_image_members``."""
    if ctx.image_size > guard:
        raise GraphError(
            f"image has {ctx.image_size} members, beyond the guard {guard}"
        )
    return list(dict.fromkeys(reference_image_members(ctx, root)))


def reference_apply_transform(ctx, root, *, guard=1 << 20):
    """The image set of ctx's function."""
    return frozenset(reference_image(ctx, root, guard=guard))


def reference_verify_counting(
    g, v0, v, t, mode, M=None, *, k_strategy="phase", lam=None, cap=10_000_000, guard=1 << 20
):
    """verify_counting one function and one image member at a time, with
    the contexts of ``reference_build_context`` and the images of
    ``reference_image``: per-function checks in family order, each image's
    members in order, every member checked."""
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

    # the high-deviation event
    omega = []
    for i, k in zip(high.tolist(), k_all[high].tolist()):
        values = tuple(rows[i].tolist())
        try:
            ctx = reference_build_context(g, values, v, k, mode, fam.M)
        except ContextError as exc:
            checks["context_claims"].tick(False, (values, str(exc)))
            continue
        checks["context_claims"].tick(True)
        checks["ball_in_A"].tick(ball(g, v, t - 1) <= ctx.A, values)
        if g.glue is not None:
            ax = ctx.A | ctx.X
            checks["tree_avoids_leaves"].tick(g.glue not in ax, values)
            d = g.degree
            checks["tree_expansion"].tick(
                len(ctx.X) > (d - 2) * len(ctx.A), (values, len(ctx.A), len(ctx.X))
            )
        omega.append(ctx)

    # the images, and the checks of each function's image
    images = [reference_image(ctx, v0, guard=guard) for ctx in omega]
    for ctx, image in zip(omega, images):
        checks["image_size"].tick(len(image) == ctx.image_size, ctx.values)
        bad = _reference_first_invalid(g, ctx, v0, image)
        checks["image_members_valid"].tick(bad is None, bad)
        checks["image_in_family"].tick(all(h in codomain for h in image), ctx.values)
        if mode == "lipschitz":
            _reference_check_u_recovery(g, ctx, image, checks["u_recovery"])
        _reference_check_reconstruction(g, ctx, image, checks["reconstruction"])

    # the partition by (A, S), by A in hom mode
    groups = {}
    for ctx, image in zip(omega, images):
        key = (ctx.A, ctx.s_signature()) if mode == "lipschitz" else (ctx.A,)
        groups.setdefault(key, []).append((ctx, image))

    by_a = {}
    for ctx in omega:
        by_a.setdefault(ctx.A, []).append(ctx)

    images_by_group = {}
    q_size = rows.shape[0]

    for key, members in groups.items():
        union_image = set()
        preimage_count = {}
        ctx0 = members[0][0]
        for ctx, image in members:
            union_image.update(image)
            for h in image:
                preimage_count[h] = preimage_count.get(h, 0) + 1
        images_by_group[key] = union_image

        # preimage bound alpha and the double-counting ratio
        alpha = ctx0.preimage_bound
        beta = min(ctx.image_size for ctx, _ in members)
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
            Fraction(len(members), q_size) <= members[0].ratio_bound,
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


def _reference_first_invalid(g, ctx, root, image):
    """(f, member, first violation) for the first image member outside the
    family of ctx's function f, pinned at ``root``, or None when every
    member is valid."""
    for h in image:
        bad = validate(g, h, root, ctx.mode, ctx.M)
        if bad:
            return ctx.values, h, bad[0]
    return None


def _reference_check_u_recovery(g, ctx, image, check):
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
        check.tick(ok, (ctx.values, h))


def _reference_check_reconstruction(g, ctx, image, check):
    """f must be uniquely recoverable from (h, k, f restricted to A u X)."""
    vals = ctx.values
    ax = ctx.A | ctx.X
    for h in image:
        if ctx.mode == "lipschitz":
            shift = ctx.k + ctx.M - h[ctx.v]
        else:
            # the anchor: the lowest vertex of A adjacent to X
            w_star = next(w for w in sorted(ctx.A) if any(x in ctx.X for x in g.adj[w]))
            shift = ctx.k - h[w_star]
        rec = list(h)
        for w in range(g.n):
            if w in ax:
                rec[w] = vals[w]
            else:
                rec[w] = h[w] + shift
        check.tick(tuple(rec) == vals, (vals, h))
