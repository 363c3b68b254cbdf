"""Shared fixtures: small named graphs and independent brute-force oracles.

The oracles here deliberately avoid the library's enumeration and phase
machinery: they are plain assignment searches over explicit value ranges
and by-definition phase scans of one function at a time, used as ground
truth.
"""

from __future__ import annotations

import pytest

from liphom import build_graph
from liphom.graphs import GraphError
from liphom.heights import Phase, PhaseError


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
