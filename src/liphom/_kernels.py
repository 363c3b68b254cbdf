"""The Glauber heat-bath kernel.

One plain-Python definition.  It consumes pre-drawn random words, so a
chain's samples depend only on its seed and chain id.
"""

from __future__ import annotations

from itertools import count

# perfbench's environment block reads this; there is no compiled kernel
NUMBA_ENABLED = False

# random words converted to Python ints at a time (per stream)
CHUNK_STEPS = 4096


def glauber_run(adj, values, free, M, hom, rnd_v, rnd_x, thin, burnin, out):
    """Run heat-bath single-site dynamics in place.

    ``adj`` is the graph's tuple of neighbor tuples, ``values`` the current
    height vector (int64 array, updated in place), ``free`` the vertices
    eligible for resampling (everything but the pinned root).  Step i
    consumes rnd_v[i] (vertex pick) and rnd_x[i] (value pick); the run has
    len(rnd_v) steps.  After ``burnin`` steps, every ``thin``-th state is
    copied into ``out`` until it is full.  Returns the number of recorded
    samples.
    """
    heights = values.tolist()
    n_free = len(free)
    n_out = out.shape[0]
    n_rec = 0
    for start in range(0, len(rnd_v), CHUNK_STEPS):
        words_v = rnd_v[start : start + CHUNK_STEPS].tolist()
        words_x = rnd_x[start : start + CHUNK_STEPS].tolist()
        for step, wv, wx in zip(count(start + 1), words_v, words_x):
            v = free[wv % n_free]
            nbr = [heights[w] for w in adj[v]]
            mn = min(nbr)
            mx = max(nbr)
            if hom:
                # mx == mn allows both mn - 1 and mn + 1; mx - mn == 2 forces mn + 1
                x = mn + 1 if mx - mn == 2 or wx % 2 else mn - 1
            else:
                x = mx - M + wx % (mn - mx + 2 * M + 1)
            heights[v] = x
            values[v] = x
            post = step - burnin
            if post > 0 and post % thin == 0 and n_rec < n_out:
                out[n_rec, :] = values
                n_rec += 1
    return n_rec
