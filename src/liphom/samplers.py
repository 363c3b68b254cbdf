"""Exact enumeration and Glauber-dynamics sampling of height functions."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .graphs import Graph, GraphError, _is_connected, distances_from
from .heights import HeightFunction, homomorphism, lipschitz

__all__ = [
    "EnumerationResult",
    "CapExceeded",
    "ChainState",
    "enumerate_functions",
    "allowed_values",
    "glauber_step",
    "initial_state",
    "mcmc_sample_array",
]


class CapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class EnumerationResult:
    functions: tuple[HeightFunction, ...]
    count: int


def _bfs_order(g: Graph, v0: int) -> list[int]:
    dist = distances_from(g, v0)
    if any(x < 0 for x in dist):
        raise GraphError("enumeration requires a connected graph")
    return sorted(range(g.n), key=lambda v: (dist[v], v)), dist


def enumerate_functions(
    g: Graph, v0: int, mode: str, M: int | None = None, cap: int = 10_000_000
) -> EnumerationResult:
    """All height functions in the family, by depth-first assignment in BFS
    vertex order with constraint propagation.

    A vertex value is confined to the intersection of the windows of its
    already-assigned neighbors and to |value| <= M * dist(v0, vertex)
    (slope 1 with parity for hom mode).  Raises CapExceeded beyond ``cap``.
    """
    if mode == "hom" and g.bipartition is None:
        raise GraphError("hom enumeration requires a bipartite graph")
    if mode == "lipschitz" and (M is None or M < 1):
        raise ValueError("lipschitz enumeration needs a positive M")
    if cap <= 0:
        raise ValueError("cap must be positive")
    order, dist = _bfs_order(g, v0)
    slope = M if mode == "lipschitz" else 1
    values = [0] * g.n
    assigned = [False] * g.n
    out: list[tuple[int, ...]] = []

    def assign(pos: int) -> None:
        if pos == len(order):
            out.append(tuple(values))
            if len(out) > cap:
                raise CapExceeded(f"enumeration exceeded cap {cap}")
            return
        v = order[pos]
        radius = slope * dist[v]
        lo, hi = -radius, radius
        for w in g.adj[v]:
            if assigned[w]:
                lo = max(lo, values[w] - slope)
                hi = min(hi, values[w] + slope)
        assigned[v] = True
        for x in range(lo, hi + 1):
            if mode == "hom":
                if (x - dist[v]) % 2 != 0:
                    continue
                ok = all(
                    not assigned[w] or abs(values[w] - x) == 1 for w in g.adj[v]
                )
                if not ok:
                    continue
            values[v] = x
            assign(pos + 1)
        assigned[v] = False

    # root is pinned
    assigned[v0] = True
    values[v0] = 0
    first = order.index(v0)
    assert first == 0
    assign(1)

    make = (
        (lambda t: lipschitz(t, v0, M)) if mode == "lipschitz" else (lambda t: homomorphism(t, v0))
    )
    funcs = tuple(make(t) for t in out)
    return EnumerationResult(functions=funcs, count=len(funcs))


def allowed_values(g: Graph, values, v: int, mode: str, M: int | None = None) -> list[int]:
    """Values the heat-bath move may assign at v given its neighbors."""
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


@dataclass(frozen=True)
class ChainState:
    """State of one Glauber chain: current function, steps taken (each step
    consumes two words of its RNG stream) and the stream's seed and chain id."""

    f: HeightFunction
    step: int
    seed: int
    chain: int


def initial_state(g: Graph, v0: int, mode: str, M: int | None, seed: int, chain: int = 0) -> ChainState:
    """Minimal-oscillation start: all zeros (Lipschitz), or 0/1 by color
    class relative to the root's side (hom)."""
    if mode == "hom":
        if g.bipartition is None:
            raise GraphError("hom mode requires a bipartite graph")
        side0 = g.bipartition[0] if v0 in g.bipartition[0] else g.bipartition[1]
        values = tuple(0 if v in side0 else 1 for v in range(g.n))
        f = homomorphism(values, v0)
    else:
        f = lipschitz((0,) * g.n, v0, M)
    return ChainState(f=f, step=0, seed=seed, chain=chain)


def _draw_words(seed: int, chain: int, skip: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    gen = np.random.Generator(
        np.random.Philox(key=np.random.SeedSequence((seed, chain)).generate_state(2, np.uint64))
    )
    if skip:
        gen.integers(0, 2**63, size=2 * skip, dtype=np.uint64)
    words = gen.integers(0, 2**63, size=2 * count, dtype=np.uint64)
    return words[0::2], words[1::2]


def glauber_step(g: Graph, state: ChainState) -> ChainState:
    """One heat-bath move: uniform vertex != root, value resampled uniformly
    on its allowed set.  Consumes exactly two RNG words."""
    f = state.f
    rnd_v, rnd_x = _draw_words(state.seed, state.chain, state.step, 1)
    free = [v for v in range(g.n) if v != f.root]
    v = free[int(rnd_v[0]) % len(free)]
    opts = allowed_values(g, f.values, v, f.mode, f.M)
    x = opts[int(rnd_x[0]) % len(opts)]
    values = list(f.values)
    values[v] = x
    return replace(state, f=replace(f, values=tuple(values)), step=state.step + 1)


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
    """Deterministic Glauber sampling; returns (n_samples, n) int64 states.

    Starts from the minimal-oscillation state, discards ``burnin`` steps,
    then records every ``thin``-th state.  Raises GraphError on a graph with
    an isolated vertex or more than one component, where the chain cannot
    move or cannot mix.
    """
    if burnin < 0 or thin <= 0 or n_samples <= 0:
        raise ValueError("burnin must be >= 0, thin and n_samples positive")
    if any(not nbrs for nbrs in g.adj):
        raise GraphError("MCMC requires every vertex to have a neighbor")
    if not _is_connected(g):
        raise GraphError("MCMC requires a connected graph")
    state = initial_state(g, v0, mode, M, seed, chain)
    values = np.array(state.f.values, dtype=np.int64)
    free = [v for v in range(g.n) if v != v0]
    rnd_v, rnd_x = _draw_words(seed, chain, 0, burnin + thin * n_samples)
    out = np.empty((n_samples, g.n), dtype=np.int64)
    n_rec = _kernels.glauber_run(
        g.adj, values, free, M if M is not None else 1, mode == "hom",
        rnd_v, rnd_x, thin, burnin, out,
    )
    assert n_rec == n_samples
    return out


def split_chain_diagnostic(samples: np.ndarray, vertex: int) -> float:
    """Crude mixing diagnostic: absolute difference between the mean of
    f(vertex) over the first and second halves of the chain."""
    col = samples[:, vertex].astype(float)
    half = len(col) // 2
    if half == 0:
        return 0.0
    return abs(col[:half].mean() - col[half:].mean())
