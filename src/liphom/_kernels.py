"""The Glauber heat-bath kernel.

It consumes pre-drawn random words, so a chain's samples depend only on its
seed and chain id.  Steps are solved a block at a time by vectorized
fixed-point passes, except on a small graph or one with a very uneven degree
(see ``glauber_run``), which is run step by step in plain Python.  Both give
the sequential chain's states, bit for bit.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from .graphs import neighbour_table

# perfbench's environment block reads this; there is no compiled kernel
NUMBA_ENABLED = False

# steps in a block: (vertex, value) word pairs drawn and solved at a time.
# On random 8-regular graphs with n = 4096 (2-vCPU x86 host), recording every
# 10th state took 0.90 us per step at 512, against 0.95 at 256 and 1.12 at
# 1024; in hom mode, with rare records, 0.41 against 0.51 and 0.37.
CHUNK_STEPS = 512

# vertex count from which blocks go to the block solver (BENCH_27.json, 2-vCPU
# x86 host: from 128 vertices blocks won 86 of 93 cases, losing only at n = 128
# with M = 3, by 10-17 %; below 64 vertices the step loop won 43 of 44)
MIN_BLOCK_N = 128

_NO_STEP = np.iinfo(np.int64).max  # a vertex with no step in the block


def glauber_run(g, values, free, M, hom, words, thin, burnin, out):
    """Run heat-bath single-site dynamics on the graph g in place.

    ``values`` is the current height vector (int64 array, a state of the
    family; it ends as the final state), ``free`` the vertices eligible for
    resampling (everything but the pinned root).  ``words`` yields (vertex
    words, value words) uint64 array pairs below 2**63, at most
    ``CHUNK_STEPS`` long; step i consumes the i-th word of each, and the run
    has as many steps as there are words.  After ``burnin`` steps, every
    ``thin``-th state is copied into ``out`` until it is full; ``out`` may be
    of a narrower integer type, which the caller chooses to hold every
    reachable height.  Returns the number of recorded samples.

    Each chunk of words is one block of steps, whose writes ``_solve_block``
    finds by vectorized passes.  A graph with fewer than ``MIN_BLOCK_N``
    vertices, or whose ``graphs.neighbour_table`` would more than triple the
    adjacency by padding every vertex to the largest degree (a star, a glued
    tree), is run step by step instead, on one height list kept for the whole
    run and one ``itemgetter`` per vertex.
    The recorded states and the final state are then built from the block
    start and the writes in step order.
    """
    adj = g.adj
    n = len(adj)
    deg = list(map(len, adj))
    blocks = n >= MIN_BLOCK_N and max(deg) * n <= 3 * sum(deg)
    if blocks:
        table = neighbour_table(g)
        first = np.full(n, _NO_STEP, dtype=np.int64)
    else:
        # a degree-1 vertex repeats its neighbor, so every gather is a tuple
        gather = [itemgetter(*a) if len(a) > 1 else itemgetter(a[0], a[0]) for a in adj]
        heights = values.tolist()  # kept equal to values at every block start
    free_arr = np.asarray(free, dtype=np.int64)
    n_free = len(free)
    n_out = out.shape[0]
    n_rec = 0
    done = 0  # steps taken
    for words_v, words_x in words:
        vertices = free_arr[words_v % n_free]
        value_words = words_x & 1 if hom else words_x.view(np.int64)
        size = len(vertices)
        nxt = _next_steps(vertices)
        if blocks:
            writes = _solve_block(values, vertices, value_words, nxt, table, first, M, hom)
        else:
            writes = _run_steps(heights, gather, vertices.tolist(), value_words.tolist(), M, hom)
        # the next record is the state after step count burnin + thin * (n_rec + 1)
        k0 = burnin + thin * (n_rec + 1) - done
        if n_rec < n_out and k0 <= size:
            m = min(n_out - n_rec, (size - k0) // thin + 1)
            _record(out[n_rec : n_rec + m], values, vertices, writes, nxt, k0, thin)
            n_rec += m
        last = nxt == size
        values[vertices[last]] = writes[last]
        done += size
    return n_rec


def _next_steps(vertices):
    """For each step of a block, the next step on the same vertex, or the
    block length if there is none."""
    size = len(vertices)
    # steps grouped by vertex, in step order within a group: one sort of the
    # distinct keys vertex * size + step
    keys = np.sort(vertices * size + np.arange(size))
    by_vertex, order = np.divmod(keys, size)
    repeat = by_vertex[1:] == by_vertex[:-1]
    nxt = np.full(size, size)
    nxt[order[:-1][repeat]] = order[1:][repeat]
    return nxt


def _run_steps(heights, gather, vertices, value_words, M, hom):
    """The heights a block's steps write, one step at a time, from the
    block-start state ``heights`` (a list, which they overwrite)."""
    writes = []
    append = writes.append
    for v, wx in zip(vertices, value_words):
        nbr = gather[v](heights)
        mn = min(nbr)
        mx = max(nbr)
        if hom:
            # mx == mn allows both mn - 1 and mn + 1; mx - mn == 2 forces mn + 1
            x = mn + 1 if mx - mn == 2 or wx else mn - 1
        else:
            x = mx - M + wx % (mn - mx + 2 * M + 1)
        heights[v] = x
        append(x)
    return np.array(writes, dtype=np.int64)


def _solve_block(values, vertices, value_words, nxt, table, first, M, hom):
    """The heights a block's steps write, by fixed-point passes.

    Step j reads each neighbor's height from the latest earlier step of the
    block on that neighbor, or from ``values`` (the block-start state) if
    there is none.  A pass applies the heat-bath rule to every step, reading
    the previous pass's writes.  Since step j reads only steps before j, the
    map has one fixed point, the sequential writes, and the passes reach it
    within (longest dependency chain + 1) passes; a pass that reproduces its
    input is at it, so the passes always end.
    """
    size = len(vertices)
    steps = np.arange(size)
    # column j: the neighbors step j reads
    slot_vertex = table.take(vertices, axis=1)
    # each slot's writer: the latest earlier step on its vertex, found by
    # walking that vertex's steps from its first one
    np.minimum.at(first, vertices, steps)
    writer = first[slot_vertex]
    first[vertices] = _NO_STEP
    dep = np.flatnonzero(writer < steps)
    writer = writer.reshape(-1)[dep]
    reader = dep % size
    while True:
        later = nxt[writer]
        ahead = later < reader
        if not ahead.any():
            break
        writer = np.where(ahead, later, writer)
    # dependent slots start at the block-start state; each pass overwrites them
    heights = values[slot_vertex]
    writes = None
    while True:
        mn = heights.min(axis=0)
        mx = heights.max(axis=0)
        if hom:
            new = mn - 1 + 2 * ((mx - mn == 2) | (value_words != 0))
        else:
            # a pass before convergence may read an inconsistent state, with
            # an empty window; the sequential steps never do
            lo = mx - M
            new = lo + value_words % np.maximum(mn + M - lo + 1, 1)
        if writes is not None and np.array_equal(new, writes):
            return writes
        writes = new
        heights.reshape(-1)[dep] = writes[writer]


def _record(rows, values, vertices, writes, nxt, k0, thin):
    """Fill ``rows`` with the states after k0, k0 + thin, ... steps of the
    block: the block-start state ``values``, plus each step's write in the
    rows after it and up to the next step on its vertex."""
    rows[:] = values
    steps = np.arange(len(vertices))
    lo = np.maximum((steps - k0) // thin + 1, 0)
    hi = np.minimum((nxt - k0) // thin + 1, len(rows))
    count = np.maximum(hi - lo, 0)
    # the (row, vertex) pairs are distinct: a vertex's steps cover disjoint rows
    row = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
    rows[row, np.repeat(vertices, count)] = np.repeat(writes, count)
