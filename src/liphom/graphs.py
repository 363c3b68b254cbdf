"""Graph representation, constructions and metric/boundary primitives.

Graphs are simple, undirected and immutable after construction.  The one
exception is the glued tree, whose glue vertex keeps parallel edges to the
former leaf parents (they do not change any height-function constraint, but
they preserve the glue vertex's degree).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "build_graph",
    "gen_random_regular",
    "gen_random_bipartite_regular",
    "gen_tree",
    "tree_level_offsets",
    "tree_ball_size",
    "ball",
    "boundary",
    "component_in_square",
    "count_connected_sets",
    "read_graph",
    "write_graph",
    "graph_to_text",
]


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with optional annotations.

    adjacency lists are sorted tuples of neighbor ids; ids are 0..n-1.
    ``degree`` is set iff the graph is regular (the glued tree records the
    tree arity there instead and is exempt from the regularity invariant).
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    degree: int | None = None
    bipartition: tuple[frozenset[int], frozenset[int]] | None = None
    root: int | None = None
    leaves: frozenset[int] | None = None
    glue: int | None = None
    _csr: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        for v in range(self.n):
            indptr[v + 1] = indptr[v] + len(self.adj[v])
        indices = np.fromiter(
            (w for nbrs in self.adj for w in nbrs), dtype=np.int64, count=indptr[-1]
        )
        indptr.flags.writeable = False
        indices.flags.writeable = False
        object.__setattr__(self, "_csr", (indptr, indices))

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) adjacency in CSR form, for numeric kernels."""
        return self._csr

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


def _two_color(n: int, adj) -> tuple[frozenset[int], frozenset[int]]:
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    raise GraphError("graph has an odd cycle; no bipartition exists")
    return (
        frozenset(v for v in range(n) if color[v] == 0),
        frozenset(v for v in range(n) if color[v] == 1),
    )


def build_graph(
    n: int,
    edges,
    *,
    bipartite: bool = False,
    bipartition: tuple | None = None,
    root: int | None = None,
    leaves=None,
) -> Graph:
    """Validate an edge list and assemble a Graph.

    Rejects self-loops and duplicate edges.  With ``bipartite=True`` the
    bipartition is computed by 2-coloring (error on odd cycles) unless an
    explicit ``bipartition`` is supplied.  A uniform degree is recorded
    automatically.
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
    degree = degrees.pop() if len(degrees) == 1 else None

    part = None
    if bipartition is not None:
        part = (frozenset(bipartition[0]), frozenset(bipartition[1]))
        for u in range(n):
            for w in adj_t[u]:
                if (u in part[0]) == (w in part[0]):
                    raise GraphError(f"edge ({u},{w}) does not cross the bipartition")
    elif bipartite:
        part = _two_color(n, adj_t)

    return Graph(
        n=n,
        adj=adj_t,
        degree=degree,
        bipartition=part,
        root=root,
        leaves=frozenset(leaves) if leaves is not None else None,
    )


def gen_random_regular(
    n: int,
    d: int,
    seed: int,
    *,
    connected: bool = True,
    max_restarts: int = 10_000,
) -> Graph:
    """Random simple d-regular graph via stub pairing.

    Stubs are paired one at a time; pairs forming a loop or a repeated edge
    are re-drawn, and the whole pairing restarts when no legal pair remains.
    Connectivity, when requested, is enforced by restart as well.
    Deterministic for a fixed (n, d, seed).
    """
    if d >= n:
        raise GraphError(f"degree d={d} must be smaller than n={n}")
    if (n * d) % 2 != 0:
        raise GraphError(f"n*d = {n * d} is odd; no d-regular graph exists")
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, d)))
    for _ in range(max_restarts):
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
        if connected and not _is_connected(g):
            continue
        return g
    raise GraphError("retry budget exhausted generating a random regular graph")


def gen_random_bipartite_regular(n: int, d: int, seed: int, *, max_restarts: int = 100_000) -> Graph:
    """Random simple d-regular bipartite graph on classes {0..n-1}, {n..2n-1}.

    Built as the union of d random perfect matchings; a matching colliding
    with an earlier one is re-drawn.  Deterministic per (n, d, seed).
    """
    if d > n:
        raise GraphError(f"degree d={d} cannot exceed class size n={n}")
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
    return build_graph(
        2 * n, sorted(edges), bipartition=(range(n), range(n, 2 * n))
    )


def tree_level_offsets(d: int, h: int) -> list[int]:
    """First vertex of each level of gen_tree(d, h), then n: level j holds
    vertices offsets[j] .. offsets[j + 1] - 1."""
    if d < 3:
        raise GraphError(f"arity parameter d={d} must be at least 3")
    if h < 1:
        raise GraphError(f"height h={h} must be at least 1")
    # level sizes: 1, d, d(d-1), ..., d(d-1)^(h-1)
    offsets = [0, 1]
    for j in range(1, h + 1):
        offsets.append(offsets[-1] + d * (d - 1) ** (j - 1))
    return offsets


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

    def below(j: int, r: int) -> int:
        # a depth-j vertex and its descendants at most r levels down
        if r < 0:
            return 0
        size = 1
        for i in range(1, min(r, h - j) + 1):
            size += d * (d - 1) ** (i - 1) if j == 0 else (d - 1) ** i
        return size

    size = below(depth, t)
    for k in range(1, min(t, depth) + 1):
        siblings = (d if depth - k == 0 else d - 1) - 1
        size += 1 + siblings * below(depth - k + 1, t - k - 1)
    return size


def gen_tree(d: int, h: int, *, glued: bool = False) -> Graph:
    """Complete (d-1)-ary tree of height h; all internal vertices have degree d.

    Vertices are numbered breadth-first from the root.  With ``glued=True``
    all leaves are identified into one vertex (adjacency keeps edge
    multiplicities, so the glue vertex has degree d*(d-1)^(h-1)).
    """
    offsets = tree_level_offsets(d, h)
    n = offsets[-1]
    edges = []
    for j in range(h):
        nxt = offsets[j + 1]
        for i, v in enumerate(range(offsets[j], offsets[j + 1])):
            n_children = d if j == 0 else d - 1
            for c in range(n_children):
                edges.append((v, nxt + i * n_children + c))
    leaves = frozenset(range(offsets[h], n))
    depth_of = [
        j for j in range(h + 1) for _ in range(offsets[j], offsets[j + 1])
    ]
    if not glued:
        part = (
            frozenset(v for v in range(n) if depth_of[v] % 2 == 0),
            frozenset(v for v in range(n) if depth_of[v] % 2 == 1),
        )
        return build_graph(n, edges, bipartition=part, root=0, leaves=leaves)
    # identify all leaves into one vertex, keeping multiplicities
    n_internal = offsets[h]
    v0 = n_internal
    adj = [[] for _ in range(n_internal + 1)]
    for u, v in edges:
        u2 = v0 if u >= n_internal else u
        v2 = v0 if v >= n_internal else v
        adj[u2].append(v2)
        adj[v2].append(u2)
    adj_t = tuple(tuple(sorted(a)) for a in adj)
    part = (
        frozenset(v for v in range(n_internal) if depth_of[v] % 2 == 0),
        frozenset(v for v in range(n_internal) if depth_of[v] % 2 == 1),
    )
    if h % 2 == 0:
        part = (part[0] | {v0}, part[1])
    else:
        part = (part[0], part[1] | {v0})
    return Graph(
        n=n_internal + 1,
        adj=adj_t,
        degree=d,
        bipartition=part,
        root=0,
        leaves=frozenset({v0}),
        glue=v0,
    )


def _is_connected(g: Graph) -> bool:
    return len(ball(g, 0, g.n)) == g.n


def ball(g: Graph, v: int, t: int) -> frozenset[int]:
    """Vertices at graph distance at most t from v (exact BFS)."""
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    if t < 0:
        raise GraphError("radius must be non-negative")
    seen = {v}
    frontier = [v]
    for _ in range(t):
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return frozenset(seen)


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


def neighborhood(g: Graph, a) -> frozenset[int]:
    """N(A): vertices adjacent to some vertex of A."""
    out = set()
    for u in a:
        out.update(g.adj[u])
    return frozenset(out)


def boundary(g: Graph, a) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(N(A), outer boundary, 2-outer boundary) of a vertex set A."""
    a = frozenset(a)
    na = neighborhood(g, a)
    outer = na - a
    nna = neighborhood(g, na)
    outer2 = nna - (a | na)
    return na, outer, outer2


def square_neighbors(g: Graph, v: int) -> frozenset[int]:
    """Neighbors of v in the auxiliary distance-<=2 graph."""
    out = set()
    for u in g.adj[v]:
        out.add(u)
        out.update(g.adj[u])
    out.discard(v)
    return frozenset(out)


def component_in_square(g: Graph, v: int, s) -> frozenset[int]:
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


def count_connected_sets(
    g: Graph, v: int, a: int, *, square: bool = False, budget: int = 10_000_000
) -> int:
    """Exact number of connected vertex sets of size a containing v.

    ``square=True`` counts connectivity in the distance-<=2 graph.  Uses
    exhaustive growth with an exclusion set, so it is feasible only for
    small a; aborts when the search touches more than ``budget`` states.
    """
    if a < 1:
        raise GraphError("set size must be at least 1")
    if square:
        nbrs = [square_neighbors(g, u) for u in range(g.n)]
    else:
        nbrs = [frozenset(g.adj[u]) for u in range(g.n)]

    visited = 0

    def grow(current: set, frontier: list, forbidden: set) -> int:
        nonlocal visited
        visited += 1
        if visited > budget:
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


# ----------------------------------------------------------------------------
# Text format: "n m" header, optional "bipartite n0" line, then "u v" lines.
# ----------------------------------------------------------------------------


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.n_edges}"]
    if g.bipartition is not None:
        v0 = g.bipartition[0]
        # the header can only describe a contiguous V0; otherwise omit it
        # (readers can recover a bipartition by 2-coloring)
        if v0 == frozenset(range(len(v0))):
            lines.append(f"bipartite {len(v0)}")
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def write_graph(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(graph_to_text(g))


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
    n0 = None
    if idx < len(lines) and lines[idx].startswith("bipartite"):
        n0 = int(lines[idx].split()[1])
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
    if n0 is not None:
        return build_graph(n, edges, bipartition=(range(n0), range(n0, n)))
    return build_graph(n, edges)
