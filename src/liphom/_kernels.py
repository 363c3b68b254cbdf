"""The Glauber heat-bath kernel.

One plain-Python definition.  It consumes pre-drawn random words, so a
chain's samples depend only on its seed and chain id.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

# perfbench's environment block reads this; there is no compiled kernel
NUMBA_ENABLED = False

# (vertex, value) word pairs drawn and converted to Python ints at a time
CHUNK_STEPS = 4096


def glauber_run(adj, values, free, M, hom, words, thin, burnin, out):
    """Run heat-bath single-site dynamics in place.

    ``adj`` is the graph's tuple of neighbor tuples, ``values`` the current
    height vector (int64 array; it ends as the final state), ``free`` the
    vertices eligible for resampling (everything but the pinned root).
    ``words`` yields (vertex words, value words) uint64 array pairs, at most
    ``CHUNK_STEPS`` long; step i consumes the i-th word of each, and the
    run has as many steps as there are words.  After ``burnin`` steps, every
    ``thin``-th state is copied into ``out`` until it is full; ``out`` may
    be of a narrower integer type, which the caller chooses to hold every
    reachable height.  Returns the number of recorded samples.

    Heights live in a list, and a vertex's neighbor heights are read with one
    precomputed ``itemgetter``.  Burn-in updates only that list; when
    recording starts, ``values`` is synced from it and then mirrors every
    step, so a recorded sample is one array copy.
    """
    heights = values.tolist()
    # a degree-1 vertex repeats its neighbor, so every gather is a tuple
    gather = [itemgetter(*nbrs) if len(nbrs) > 1 else itemgetter(nbrs[0], nbrs[0]) for nbrs in adj]
    free_arr = np.asarray(free, dtype=np.int64)
    n_free = len(free)
    n_out = out.shape[0]
    n_rec = 0
    # every step writes its height twice: to the list, and to ``mirror``,
    # which is the list itself during burn-in and ``values`` from then on
    mirror = heights
    done = 0  # steps taken
    event = burnin  # step count at which recording starts, then each record step
    for words_v, words_x in words:
        vertices = free_arr[words_v % n_free].tolist()
        value_words = (words_x & 1 if hom else words_x).tolist()
        pos = 0
        while True:
            if done == event:
                if mirror is heights:
                    values[:] = heights
                    mirror = values
                elif n_rec < n_out:
                    out[n_rec, :] = values
                    n_rec += 1
                event += thin
            end = min(len(vertices), pos + event - done)
            if end == pos:
                break
            for v, wx in zip(vertices[pos:end], value_words[pos:end]):
                nbr = gather[v](heights)
                mn = min(nbr)
                mx = max(nbr)
                if hom:
                    # mx == mn allows both mn - 1 and mn + 1; mx - mn == 2 forces mn + 1
                    x = mn + 1 if mx - mn == 2 or wx else mn - 1
                else:
                    x = mx - M + wx % (mn - mx + 2 * M + 1)
                heights[v] = x
                mirror[v] = x
            done += end - pos
            pos = end
    if mirror is heights:  # the run ended inside burn-in
        values[:] = heights
    return n_rec
