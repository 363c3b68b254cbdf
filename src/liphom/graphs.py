"""Graph representation, constructions and metric primitives.

Graphs are simple, undirected and immutable after construction.  The one
exception is the glued tree, whose glue vertex keeps parallel edges to the
former leaf parents (they do not change any height-function constraint, but
they preserve the glue vertex's degree).
"""

from __future__ import annotations

import io
import itertools
import operator
import re
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
    "require_regular",
    "neighbour_table",
    "edge_array",
    "distances_from",
    "ball",
    "read_graph",
    "graph_to_text",
]


REGULAR_MAX_RESTARTS = 10_000  # whole-pairing restarts before gen_random_regular gives up
BIPARTITE_MAX_RESTARTS = 100_000  # matching re-draws before gen_random_bipartite_regular gives up
MAX_VERTICES = 2**31 - 1  # directed-edge keys u * n + w fit in int64


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
        u, w = edge_array(self).T
        return list(zip(u.tolist(), w.tolist()))

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

    ``edges`` is an (m, 2) integer array or any iterable of (u, v) pairs; it
    is converted to one int64 array and checked on it.  Rejects a vertex
    count outside 0..MAX_VERTICES and, naming the first bad edge in input
    order, a pair that is not two integer ids in 0..n-1, a self-loop and an
    edge given twice (in either orientation); then a ``bipartition`` that
    some edge does not cross (the least such edge (u, w), u < w).  A uniform
    positive degree is recorded automatically (an edgeless graph has none,
    so no regular-graph check admits it).
    """
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count n={n} must be between 0 and {MAX_VERTICES}")
    pairs = edges if isinstance(edges, np.ndarray) else list(edges)
    e = _int_pairs(pairs)
    # the scan raises at the first bad pair; it returns only when numpy could
    # not hold good pairs as integers (bools, int64 mixed with uint64)
    if e is None or (len(e) and (e.min() < 0 or e.max() >= n or (e[:, 0] == e[:, 1]).any())):
        e = _int_pairs(_checked_pairs(n, pairs))
    # one sort of the directed edges u * n + w gives every adjacency list
    # in order, and puts an edge given twice next to its copy
    keys = np.sort(np.concatenate((e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0])))
    if (keys[1:] == keys[:-1]).any():
        _checked_pairs(n, pairs)
    src = keys // max(n, 1)
    dst = keys - src * n
    deg = np.bincount(src, minlength=n)
    degree = int(deg[0]) if n and deg[0] and (deg == deg[0]).all() else None

    part = None
    if bipartition is not None:
        part = (frozenset(bipartition[0]), frozenset(bipartition[1]))
        side = np.fromiter((u in part[0] for u in range(n)), dtype=bool, count=n)
        same = side[src] == side[dst]
        if same.any():
            i = same.argmax()
            raise GraphError(f"edge ({src[i]},{dst[i]}) does not cross the bipartition")

    nbr = dst.tolist()
    ends = np.cumsum(deg).tolist()
    adj_t = tuple([tuple(nbr[a:b]) for a, b in zip([0] + ends, ends)])
    return Graph(
        n=n,
        adj=adj_t,
        degree=degree,
        bipartition=part,
    )


def _int_pairs(pairs) -> np.ndarray | None:
    """pairs as an (m, 2) int64 array, or None unless numpy reads them as
    integer pairs.  A uint64 id at or past 2**63 wraps to a negative one,
    which the range check then rejects."""
    try:
        arr = np.asarray(pairs)
    except ValueError:  # pairs of different lengths
        return None
    if arr.ndim and not len(arr):
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        return None
    return arr.astype(np.int64, copy=False)


def _checked_pairs(n: int, pairs) -> list[tuple[int, int]]:
    """The pairs as ints, checked one at a time in input order: raise
    GraphError at the first one that is not two integer ids in 0..n-1, is a
    self-loop or repeats an earlier edge."""
    out = []
    seen = set()
    for pair in pairs:
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
        out.append((u, v))
    return out


def edge_array(g: Graph) -> np.ndarray:
    """g's edges as a C-contiguous int64 (m, 2) array of rows (u, w), u < w,
    sorted; parallel edges appear repeatedly."""
    deg = np.fromiter(map(len, g.adj), dtype=np.int64, count=g.n)
    dst = np.fromiter(itertools.chain.from_iterable(g.adj), dtype=np.int64, count=int(deg.sum()))
    src = np.repeat(np.arange(g.n), deg)
    keys = np.sort((src * g.n + dst)[src < dst])
    return np.column_stack(np.divmod(keys, max(g.n, 1)))


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
        g = build_graph(n, edges)
        if not _is_connected(g):
            continue
        return g
    raise GraphError("retry budget exhausted generating a random regular graph")


def gen_random_bipartite_regular(n: int, d: int, seed: int) -> Graph:
    """Random simple d-regular bipartite graph on classes {0..n-1}, {n..2n-1}.

    Built as the union of d random perfect matchings, held as the rows of one
    (d, n) array of right-class partners: a drawn permutation that gives some
    left vertex a partner an earlier matching already gave it is re-drawn, at
    the cost of one array comparison.  The partner array, paired with the
    left ids, is build_graph's edge array.  Raises GraphError for n < 1,
    d < 1 or d > n, and after ``BIPARTITE_MAX_RESTARTS`` re-draws.  Deterministic per (n, d, seed).
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
    # left vertex i joins n + partners[k, i] for each k
    edges = np.column_stack((np.tile(np.arange(n), d), partners.ravel() + n))
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


def require_regular(g: Graph) -> int:
    """g's degree; raise GraphError unless g records one (see Graph)."""
    if g.degree is None:
        raise GraphError("operation requires a regular graph with at least one edge")
    return g.degree


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
# Text format.  Lines end in "\n" ("\r\n" is read as "\n"); fields are
# separated by spaces and tabs.  A line that holds only spaces and tabs is
# blank, one whose first other character is "#" is a comment, and both are
# skipped wherever they stand.  The first other line is the header "n m",
# then comes an optional "bipartite n0 [v ...]" line, which lists the n0
# vertices of V0 unless V0 is {0..n0-1}, then exactly m edge lines "u v"
# with u < v.  Every number is an ASCII decimal integer with an optional
# sign, [+-]?[0-9]+ (Python's int() also takes "1_0" and "\u0663"; this
# format does not).  Malformed text raises GraphError quoting the line.
# ----------------------------------------------------------------------------

_FIELD_SEP = re.compile(r"[ \t]+")
_INT = re.compile(r"[+-]?[0-9]+")
_COMMENT_LINE = re.compile(r"^[ \t]*#.*$", re.MULTILINE)
_EDGE_BYTES = b"0123456789+- \t\n"  # every byte of well-formed edge lines


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.n_edges}"]
    if g.bipartition is not None:
        v0 = sorted(g.bipartition[0])
        listed = "" if v0 == list(range(len(v0))) else "".join(f" {v}" for v in v0)
        lines.append(f"bipartite {len(v0)}{listed}")
    edges = edge_array(g)
    return "\n".join(lines) + "\n" + "%d %d\n" * len(edges) % tuple(edges.ravel().tolist())


def read_graph(path) -> Graph:
    with open(path) as fh:
        text = fh.read()
    return graph_from_text(text)


def graph_from_text(text: str) -> Graph:
    """The graph a text in the format above describes."""
    text = text.replace("\r\n", "\n")
    lines = _data_lines(text, 0)
    line, pos = next(lines, (None, 0))
    if line is None:
        raise GraphError("empty graph file")
    header = _ints(_FIELD_SEP.split(line))
    if header is None or len(header) != 2 or not 0 <= header[0] <= MAX_VERTICES or header[1] < 0:
        raise GraphError(f"bad header line: {line!r}")
    n, m = header
    part0 = None
    line, end = next(lines, (None, pos))
    if line is not None and line.startswith("bipartite"):
        fields = _ints(_FIELD_SEP.split(line)[1:])
        if not fields or len(fields) not in (1, 1 + fields[0]) or not 0 <= fields[0] <= n:
            raise GraphError(f"bad bipartite line: {line!r}")
        part0 = set(fields[1:]) if len(fields) > 1 else set(range(fields[0]))
        if len(part0) != fields[0] or not all(0 <= v < n for v in part0):
            raise GraphError(f"bad bipartite line: {line!r}")
        pos = end
    edges = _edge_lines(text, pos)
    if len(edges) != m:
        raise GraphError(f"header declares {m} edges, file has {len(edges)}")
    if part0 is not None:
        return build_graph(n, edges, bipartition=(part0, set(range(n)) - part0))
    return build_graph(n, edges)


def _data_lines(text: str, pos: int):
    """(line, end) for each line of text from offset pos on that is neither
    blank nor a comment: the line without its outer spaces, tabs and
    newline, and the offset just past it."""
    while pos < len(text):
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end + 1
        line = text[pos:end].strip(" \t\n")
        pos = end
        if line and line[0] != "#":
            yield line, end


def _ints(fields: list[str]) -> list[int] | None:
    """The fields as ints, or None if one is not [+-]?[0-9]+."""
    if all(_INT.fullmatch(f) for f in fields):
        return [int(f) for f in fields]
    return None


def _edge_lines(text: str, pos: int):
    """The edge lines of text from offset pos on: an (m, 2) int64 array,
    parsed by np.loadtxt in one pass.  When the body holds another
    character, a line without two fields, a number past int64 or a pair
    with u >= v, the lines are read one at a time instead: the first bad one
    raises GraphError, and a body that has none (only numbers past int64)
    comes back as a list of int pairs for build_graph to reject."""
    body = text[pos:]
    if "#" in body:
        body = _COMMENT_LINE.sub("", body)
    if not body.strip(" \t\n"):
        return np.empty((0, 2), dtype=np.int64)
    if body.isascii() and not body.encode().translate(None, _EDGE_BYTES):
        try:
            edges = np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if edges.shape[1] == 2 and (edges[:, 0] < edges[:, 1]).all():
                return edges
    edges = []
    for line, _ in _data_lines(text, pos):
        pair = _ints(_FIELD_SEP.split(line))
        if pair is None or len(pair) != 2:
            raise GraphError(f"bad edge line: {line!r}")
        if not pair[0] < pair[1]:
            raise GraphError(f"edge line must have u < v: {line!r}")
        edges.append(tuple(pair))
    return edges
