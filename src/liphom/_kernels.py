"""Hot numeric kernels.

Every kernel has a single pure-Python/numpy definition; when numba is
available (and LIPHOM_NO_NUMBA is unset) the same definition is compiled
with @njit.  Both paths consume identical pre-drawn random words, so
results are bit-identical regardless of the backend.
"""

from __future__ import annotations

import os

import numpy as np

NUMBA_ENABLED = os.environ.get("LIPHOM_NO_NUMBA", "").strip().lower() not in (
    "1",
    "true",
    "yes",
)
if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        NUMBA_ENABLED = False

if not NUMBA_ENABLED:

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


@njit(cache=True)
def glauber_run(
    indptr,
    indices,
    values,
    free,
    M,
    hom,
    n_steps,
    rnd_v,
    rnd_x,
    thin,
    burnin,
    out,
):
    """Run heat-bath single-site dynamics in place.

    ``values`` is the current height vector (int64), ``free`` the vertices
    eligible for resampling (everything but the pinned root).  Each step
    consumes one word from rnd_v (vertex pick) and one from rnd_x (value
    pick).  After ``burnin`` steps, every ``thin``-th state is copied into
    ``out`` until it is full.  Returns the number of recorded samples.
    """
    n_rec = 0
    n_out = out.shape[0]
    for step in range(n_steps):
        v = free[rnd_v[step] % np.uint64(free.shape[0])]
        lo = indptr[v]
        hi = indptr[v + 1]
        mn = values[indices[lo]]
        mx = mn
        for j in range(lo + 1, hi):
            x = values[indices[j]]
            if x < mn:
                mn = x
            if x > mx:
                mx = x
        if hom:
            if mx - mn == 2:
                values[v] = mn + 1
            else:
                # mx == mn: both neighbors-value +-1 are allowed
                if rnd_x[step] % np.uint64(2) == np.uint64(0):
                    values[v] = mn - 1
                else:
                    values[v] = mn + 1
        else:
            a = mx - M
            b = mn + M
            span = np.uint64(b - a + 1)
            values[v] = a + np.int64(rnd_x[step] % span)
        post = step + 1 - burnin
        if post > 0 and post % thin == 0 and n_rec < n_out:
            out[n_rec, :] = values
            n_rec += 1
    return n_rec

