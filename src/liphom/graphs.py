"""Graph representation, constructions and metric primitives.

Graphs are simple, undirected and immutable after construction.  The one
exception is the glued tree, whose glue vertex keeps parallel edges to the
former leaf parents (they do not change any height-function constraint, but
they preserve the glue vertex's degree).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "build_graph",
    "gen_random_regular",
    "gen_random_bipartite_regular",
    "gen_tree",
    "tree_level_offsets",
    "tree_level_children",
    "tree_ball_size",
    "check_vertex",
    "neighbour_table",
    "distances_from",
    "ball",
    "read_graph",
    "graph_to_text",
]


REGULAR_MAX_RESTARTS = 10_000  # whole-pairing restarts before gen_random_regular gives up
BIPARTITE_MAX_RESTARTS = 100_000  # matching re-draws before gen_random_bipartite_regular gives up


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with optional annotations.

    adjacency lists are sorted tuples of neighbor ids; ids are 0..n-1.
    ``degree`` is set iff the graph is regular of positive degree (the glued
    tree records the tree arity there instead and is exempt from the
    regularity invariant); a graph without edges has none.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    degree: int | None = None
    bipartition: tuple[frozenset[int], frozenset[int]] | None = None
    root: int | None = None
    leaves: frozenset[int] | None = None
    glue: int | None = None

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted; parallel edges appear repeatedly."""
        out = []
        for u in range(self.n):
            for w in self.adj[u]:
                if u < w:
                    out.append((u, w))
        out.sort()
        return out

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2


def build_graph(
    n: int,
    edges,
    *,
    bipartition: tuple | None = None,
) -> Graph:
    """Validate an edge list and assemble a Graph.

    Rejects self-loops and duplicate edges, and a ``bipartition`` that some
    edge does not cross.  A uniform positive degree is recorded
    automatically (an edgeless graph has none, so no regular-graph check
    admits it).
    """
    adj = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
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

    return Graph(
        n=n,
        adj=adj_t,
        degree=degree,
        bipartition=part,
    )


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Random simple connected d-regular graph via stub pairing.

    Stubs are paired one at a time; pairs forming a loop or a repeated edge
    are re-drawn, and the whole pairing restarts when no legal pair remains
    or the result is disconnected.  Raises GraphError at entry for n < 1,
    d < 1, d >= n, odd n*d and d = 1 with n > 2 (a perfect matching on more
    than two vertices is not connected), and after ``REGULAR_MAX_RESTARTS``
    restarts.
    Deterministic for a fixed (n, d, seed).
    """
    if n < 1:
        raise GraphError(f"vertex count n={n} must be at least 1")
    if d < 1:
        raise GraphError(f"degree d={d} must be at least 1")
    if d >= n:
        raise GraphError(f"degree d={d} must be smaller than n={n}")
    if d == 1 and n > 2:
        raise GraphError(f"degree d=1 with n={n} > 2: a perfect matching is not connected")
    if (n * d) % 2 != 0:
        raise GraphError(f"n*d = {n * d} is odd; no d-regular graph exists")
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, d)))
    for _ in range(REGULAR_MAX_RESTARTS):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        stubs = list(stubs)
        edges = set()
        stuck = False
        while stubs:
            u = stubs.pop()
            # find a partner for u among the remaining stubs: random probes
            # first, then an exhaustive scan before declaring a dead end
            j_found = -1
            for _ in range(32):
                j = int(rng.integers(len(stubs)))
                v = stubs[j]
                if v != u and (min(u, v), max(u, v)) not in edges:
                    j_found = j
                    break
            if j_found < 0:
                legal = [
                    j
                    for j, v in enumerate(stubs)
                    if v != u and (min(u, v), max(u, v)) not in edges
                ]
                if not legal:
                    stuck = True
                    break
                j_found = legal[int(rng.integers(len(legal)))]
            v = stubs[j_found]
            stubs[j_found] = stubs[-1]
            stubs.pop()
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
        if stuck:
            continue
        g = build_graph(n, sorted(edges))
        if not _is_connected(g):
            continue
        return g
    raise GraphError("retry budget exhausted generating a random regular graph")


def gen_random_bipartite_regular(n: int, d: int, seed: int) -> Graph:
    """Random simple d-regular bipartite graph on classes {0..n-1}, {n..2n-1}.

    Built as the union of d random perfect matchings, held as the rows of one
    (d, n) array of right-class partners: a drawn permutation that gives some
    left vertex a partner an earlier matching already gave it is re-drawn, at
    the cost of one array comparison.  The edge list is built once, at the
    end.  Raises GraphError for n < 1, d < 1 or d > n, and after
    ``BIPARTITE_MAX_RESTARTS`` re-draws.  Deterministic per (n, d, seed).
    """
    if n < 1:
        raise GraphError(f"class size n={n} must be at least 1")
    if d < 1:
        raise GraphError(f"degree d={d} must be at least 1")
    if d > n:
        raise GraphError(f"degree d={d} cannot exceed class size n={n}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, d, 1)))
    partners = np.empty((d, n), dtype=np.int64)
    restarts = 0
    for k in range(d):
        perm = rng.permutation(n)
        while (partners[:k] == perm).any():
            restarts += 1
            if restarts > BIPARTITE_MAX_RESTARTS:
                raise GraphError("retry budget exhausted generating bipartite regular graph")
            perm = rng.permutation(n)
        partners[k] = perm
    # left vertex i joins n + partners[k, i] for each k: sorted (u, v) pairs
    right = np.sort(partners.T, axis=1) + n
    edges = zip(np.repeat(np.arange(n), d).tolist(), right.ravel().tolist())
    return build_graph(2 * n, edges, bipartition=(range(n), range(n, 2 * n)))


def tree_level_offsets(d: int, h: int) -> list[int]:
    """First vertex of each level of gen_tree(d, h), then n: level j holds
    vertices offsets[j] .. offsets[j + 1] - 1.  The only code that knows the
    shape (d children at the root, d - 1 below); the rest reads it off here."""
    if d < 3:
        raise GraphError(f"arity parameter d={d} must be at least 3")
    if h < 1:
        raise GraphError(f"height h={h} must be at least 1")
    # level sizes: 1, d, d(d-1), ..., d(d-1)^(h-1)
    offsets = [0, 1]
    for j in range(1, h + 1):
        offsets.append(offsets[-1] + d * (d - 1) ** (j - 1))
    return offsets


def tree_level_children(offsets: list[int]) -> list[int]:
    """Children of a vertex at each depth 0 .. h - 1, given
    tree_level_offsets(d, h): the ratio of consecutive level sizes."""
    return [(c - b) // (b - a) for a, b, c in zip(offsets, offsets[1:], offsets[2:])]


def tree_ball_size(d: int, h: int, depth: int, t: int) -> int:
    """len(ball(gen_tree(d, h), v, t)) for any vertex v at the given depth,
    without building the tree.

    The ball holds the vertices below v within t levels and, for each
    ancestor k <= min(t, depth) hops up, that ancestor and the subtrees of
    its other children within t - k - 1 levels below them.
    """
    if not (0 <= depth <= h):
        raise GraphError(f"depth {depth} out of range")
    if t < 0:
        raise GraphError("radius must be non-negative")
    offsets = tree_level_offsets(d, h)

    def below(j: int, r: int) -> int:
        # a depth-j vertex and its descendants at most r levels down: each
        # level holds 1/size(j) of its vertices below one depth-j vertex
        if r < 0:
            return 0
        return (offsets[min(j + r, h) + 1] - offsets[j]) // (offsets[j + 1] - offsets[j])

    size = below(depth, t)
    for k in range(1, min(t, depth) + 1):
        # the ancestor's own subtree, less the branch that holds v
        size += below(depth - k, t - k) - below(depth - k + 1, t - k - 1)
    return size


def gen_tree(d: int, h: int, *, glued: bool = False) -> Graph:
    """Complete (d-1)-ary tree of height h; all internal vertices have degree d.

    Vertices are numbered breadth-first from the root.  With ``glued=True``
    all leaves are identified into one vertex (adjacency keeps edge
    multiplicities, so the glue vertex has degree d*(d-1)^(h-1)).
    """
    offsets = tree_level_offsets(d, h)
    # the glue vertex takes the first leaf's id and depth
    n = offsets[h] + 1 if glued else offsets[-1]
    depth = [j for j in range(h + 1) for _ in range(offsets[j], offsets[j + 1])]
    adj: list[list[int]] = [[] for _ in range(n)]
    # the i-th vertex of level j + 1 hangs from vertex offsets[j] + i // kids;
    # parents come before children, so every list is built in sorted order
    for j, kids in enumerate(tree_level_children(offsets)):
        for i, w in enumerate(range(offsets[j + 1], offsets[j + 2])):
            u, w = offsets[j] + i // kids, min(w, n - 1)
            adj[u].append(w)
            adj[w].append(u)
    return Graph(
        n=n,
        adj=tuple(map(tuple, adj)),
        degree=d if glued else None,
        bipartition=tuple(frozenset(v for v in range(n) if depth[v] % 2 == c) for c in (0, 1)),
        root=0,
        leaves=frozenset(range(offsets[h], n)),
        glue=n - 1 if glued else None,
    )


def _is_connected(g: Graph) -> bool:
    return min(distances_from(g, 0)) >= 0


def check_vertex(g: Graph, v: int) -> None:
    """Raise GraphError unless v is a vertex of g."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")


def neighbour_table(g: Graph) -> np.ndarray:
    """C-contiguous int64 (width, n) array, width = max(1, max degree):
    row k holds each vertex's k-th entry of g.adj, its last one past its
    degree, and the vertex itself when it has no neighbour.  A min, max or
    any over a column is the one over the vertex's neighbours; an isolated
    vertex reads only itself."""
    lists = [a or (v,) for v, a in enumerate(g.adj)]
    deg = np.fromiter(map(len, lists), dtype=np.int64, count=g.n)
    flat = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64, count=int(deg.sum()))
    last = np.cumsum(deg) - 1  # each vertex's last entry in flat
    k = np.arange(deg.max(initial=1))[:, None]
    return flat[np.minimum(last - deg + 1 + k, last)]


def ball(g: Graph, v: int, t: int) -> frozenset[int]:
    """Vertices at graph distance at most t from v."""
    check_vertex(g, v)
    if t < 0:
        raise GraphError("radius must be non-negative")
    return frozenset(w for w, x in enumerate(distances_from(g, v)) if 0 <= x <= t)


def distances_from(g: Graph, v: int) -> list[int]:
    """BFS distances from v; unreachable vertices get -1."""
    dist = [-1] * g.n
    dist[v] = 0
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


# ----------------------------------------------------------------------------
# Text format: "n m" header, optional "bipartite n0 [v ...]" line, then
# "u v" lines.  The bipartite line lists the n0 vertices of V0 unless V0 is
# {0..n0-1}.
# ----------------------------------------------------------------------------


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.n_edges}"]
    if g.bipartition is not None:
        v0 = sorted(g.bipartition[0])
        listed = "" if v0 == list(range(len(v0))) else "".join(f" {v}" for v in v0)
        lines.append(f"bipartite {len(v0)}{listed}")
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def read_graph(path) -> Graph:
    with open(path) as fh:
        text = fh.read()
    return graph_from_text(text)


def graph_from_text(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty graph file")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphError(f"bad header line: {lines[0]!r}")
    n, m = int(header[0]), int(header[1])
    idx = 1
    part0 = None
    if idx < len(lines) and lines[idx].startswith("bipartite"):
        fields = [int(x) for x in lines[idx].split()[1:]]
        if not fields or len(fields) not in (1, 1 + fields[0]):
            raise GraphError(f"bad bipartite line: {lines[idx]!r}")
        part0 = set(fields[1:]) if len(fields) > 1 else set(range(fields[0]))
        if len(part0) != fields[0] or not all(0 <= v < n for v in part0):
            raise GraphError(f"bad bipartite line: {lines[idx]!r}")
        idx += 1
    edges = []
    for ln in lines[idx:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line: {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not u < v:
            raise GraphError(f"edge line must have u < v: {ln!r}")
        edges.append((u, v))
    if len(edges) != m:
        raise GraphError(f"header declares {m} edges, file has {len(edges)}")
    if part0 is not None:
        return build_graph(n, edges, bipartition=(part0, set(range(n)) - part0))
    return build_graph(n, edges)
