"""Exact enumeration and Glauber-dynamics sampling of height functions."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graphs import Graph, GraphError, check_vertex, distances_from
from .heights import family_slope, root_classes

__all__ = [
    "EnumerationResult",
    "CapExceeded",
    "enumerate_functions",
    "mcmc_sample_array",
]


class CapExceeded(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """A family as one (count, n) integer array, one function per row, in
    depth-first order (lexicographic in the values at BFS positions)."""

    rows: np.ndarray
    root: int
    mode: str
    M: int | None = None

    @property
    def count(self) -> int:
        return self.rows.shape[0]


# rows of an array taken at a time by the blocked passes over sample arrays
# and families: a block holds about this many values, so no temporary
# approaches the size of the whole array (32 rows at n = 4096)
BLOCK_VALUES = 1 << 17


def _bfs_order(g: Graph, v0: int) -> tuple[list[int], list[int]]:
    """The vertices by (distance from v0, id), and the distances."""
    dist = distances_from(g, v0)
    if any(x < 0 for x in dist):
        raise GraphError("enumeration requires a connected graph")
    return sorted(range(g.n), key=lambda v: (dist[v], v)), dist


def _value_dtype(bound: int) -> np.dtype:
    """The smallest signed integer type holding values in [-bound, bound]."""
    for dt in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(np.int64)


def enumerate_functions(
    g: Graph, v0: int, mode: str, M: int | None = None, cap: int = 10_000_000
) -> EnumerationResult:
    """All height functions in the family, level by level in BFS vertex order.

    Level k holds every assignment of the first k vertices that satisfies the
    edges among them.  The next vertex's value is confined to the intersection
    of the windows of its already-assigned neighbors and to
    |value| <= M * dist(v0, vertex) (slope 1 with parity for hom mode); each
    row is repeated once per allowed value, in increasing value order, so the
    rows come out in depth-first order.  Raises CapExceeded as soon as a level
    would hold more than ``cap`` rows: the last level is the family, so every
    family larger than ``cap`` raises, and so can a smaller family whose
    partial assignments outnumber ``cap`` at some level.
    """
    slope = family_slope(mode, M, g)
    if cap <= 0:
        raise ValueError("cap must be positive")
    check_vertex(g, v0)
    order, dist = _bfs_order(g, v0)
    step = 2 if mode == "hom" else 1
    position = [0] * g.n
    for pos, v in enumerate(order):
        position[v] = pos
    rows = np.zeros((1, g.n), dtype=_value_dtype(slope * max(dist)))  # v0 is pinned to 0
    for pos in range(1, g.n):
        v = order[pos]
        radius = slope * dist[v]
        # in BFS order every vertex but v0 has an earlier neighbor
        prev = [w for w in g.adj[v] if position[w] < pos]
        near = rows[:, prev]
        lo = np.maximum(near.max(axis=1).astype(np.int64) - slope, -radius)
        hi = np.minimum(near.min(axis=1).astype(np.int64) + slope, radius)
        # hom: every earlier neighbor is at dist(v) - 1, so lo has v's parity
        counts = np.maximum((hi - lo) // step + 1, 0)
        total = int(counts.sum())
        if total > cap:
            raise CapExceeded(f"enumeration exceeded cap {cap}")
        # offset of each new row within its parent's run of values
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.repeat(rows, counts, axis=0)
        rows[:, v] = np.repeat(lo, counts) + step * offsets
    return EnumerationResult(rows=rows, root=v0, mode=mode, M=M if mode == "lipschitz" else None)


def _draw_words(seed: int, chain: int, count: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Chain ``chain``'s stream under ``seed``: its first ``count``
    (vertex, value) word pairs, yielded as two uint64 arrays of at most
    ``_kernels.CHUNK_STEPS`` words each, drawn one chunk at a time.

    The words are consecutive raw outputs of one Philox bit generator
    shifted right by one bit, which is what ``Generator.integers(0, 2**63)``
    returns for them, so any chunking gives the same stream; a run never
    holds more than one chunk of words.
    """
    bits = np.random.Philox(key=np.random.SeedSequence((seed, chain)).generate_state(2, np.uint64))
    for start in range(0, count, _kernels.CHUNK_STEPS):
        size = min(_kernels.CHUNK_STEPS, count - start)
        words = bits.random_raw(2 * size) >> np.uint64(1)
        yield words[0::2], words[1::2]


def mcmc_sample_array(
    g: Graph,
    v0: int,
    mode: str,
    *,
    M: int | None = None,
    burnin: int = 10_000,
    thin: int = 10,
    n_samples: int = 1000,
    seed: int = 0,
    chain: int = 0,
) -> np.ndarray:
    """Deterministic Glauber sampling; returns (n_samples, n) states.

    Starts from the minimal-oscillation state (all zeros for Lipschitz, 0
    on the root's color class and 1 on the other for hom), discards
    ``burnin`` steps, then records every ``thin``-th state.  Each step
    resamples a uniform vertex other than v0 uniformly on the values its
    neighbours allow: within M of each in Lipschitz mode, 1 from each in hom
    mode.  Raises as ``heights.family_slope`` does on the family, and
    GraphError on a root that is not a vertex and on a graph with an
    isolated vertex or more than one component, where the chain cannot move
    or cannot mix.

    Every state obeys |f(v)| <= slope * dist(v0, v), slope M (1 in hom
    mode), so the rows take the type enumeration uses for the same bound,
    ``_value_dtype(slope * ecc(v0))``.  The kernel keeps int64 heights and
    narrows each state once, as it records it.
    """
    if burnin < 0 or thin <= 0 or n_samples <= 0:
        raise ValueError("burnin must be >= 0, thin and n_samples positive")
    slope = family_slope(mode, M, g)
    check_vertex(g, v0)
    if any(not nbrs for nbrs in g.adj):
        raise GraphError("MCMC requires every vertex to have a neighbor")
    dist = distances_from(g, v0)
    if min(dist) < 0:
        raise GraphError("MCMC requires a connected graph")
    values = np.zeros(g.n, dtype=np.int64)
    if mode == "hom":
        values[list(root_classes(g, v0)[1])] = 1
    free = [v for v in range(g.n) if v != v0]
    words = _draw_words(seed, chain, burnin + thin * n_samples)
    out = np.empty((n_samples, g.n), dtype=_value_dtype(slope * max(dist)))
    n_rec = _kernels.glauber_run(g, values, free, slope, mode == "hom", words, thin, burnin, out)
    assert n_rec == n_samples
    return out
