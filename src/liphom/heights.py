"""M-Lipschitz and homomorphism height functions, validation and phases."""

from __future__ import annotations

import math

import numpy as np

from .graphs import Graph, GraphError, require_regular

__all__ = [
    "PhaseError",
    "family_slope",
    "root_classes",
    "validate",
    "phase_lipschitz",
    "phase_hom",
    "phases_lipschitz",
    "phases_hom",
    "phase_windows",
]


class PhaseError(ValueError):
    """No level satisfies the phase count bound (invalid lambda)."""


def family_slope(mode: str, M: int | None, g: Graph | None = None) -> int:
    """The family's largest gap along an edge: M in "lipschitz" mode, 1 in
    "hom" mode (M unread).  Raises ValueError on an unknown mode or a
    Lipschitz M below 1, GraphError on a hom-mode g with no bipartition."""
    if mode == "lipschitz":
        if M is None or M < 1:
            raise ValueError("lipschitz mode needs a positive slope M")
        return M
    if mode != "hom":
        raise ValueError(f"unknown mode {mode!r}")
    if g is not None and g.bipartition is None:
        raise GraphError("hom mode requires a bipartite graph")
    return 1


def root_classes(g: Graph, root: int) -> tuple[frozenset[int], frozenset[int]]:
    """The colour class of ``root`` in g's bipartition, then the other."""
    first, second = g.bipartition
    return (first, second) if root in first else (second, first)


def validate(g: Graph, values, root: int, mode: str, M: int | None = None) -> list[str]:
    """Violation messages; empty iff ``values`` (one integer per vertex) is
    a member of the family of functions pinned to 0 at ``root``: slope M in
    "lipschitz" mode, or "hom".  Raises as ``family_slope`` does on the
    mode, the slope and a hom graph without a bipartition."""
    family_slope(mode, M, g)
    out = []
    if len(values) != g.n:
        return [f"value vector has length {len(values)}, graph has {g.n} vertices"]
    if not 0 <= root < g.n:
        return [f"root vertex {root} out of range"]
    if values[root] != 0:
        out.append(f"root vertex {root} has value {values[root]}, expected 0")
    for u, w in g.edges():
        gap = abs(values[u] - values[w])
        if mode == "lipschitz" and gap > M:
            out.append(f"edge ({u},{w}): |{values[u]} - {values[w]}| > M={M}")
        elif mode == "hom" and gap != 1:
            out.append(f"edge ({u},{w}): |{values[u]} - {values[w]}| != 1")
    if mode == "hom" and not out:
        for v in root_classes(g, root)[0]:
            if values[v] % 2 != 0:
                out.append(f"vertex {v} in the root's color class has odd value")
    return out


def _signs(rows: np.ndarray) -> np.ndarray:
    """Sign of each row's first nonzero value (0 for the zero row): a row is
    the larger of {f, -f} iff its sign is positive."""
    return np.sign(rows[np.arange(rows.shape[0]), (rows != 0).argmax(axis=1)])


def _value_counts(rows: np.ndarray, sign: np.ndarray, column_sets) -> tuple[int, np.ndarray]:
    """(A, counts): counts[A + x, r, i] = |{v in column_sets[i] : f(v) = x}|
    for |x| <= A, f row r in its canonical sign; A exceeds every |value| by
    1, so that x - 1 and x + 1 are in range.  One ``rows == x`` per value,
    counted in every column set at once by a product with the sets' 0/1
    matrix, so that no sum runs along a row.  Every partial sum is an
    integer of at most n, which float32 holds exactly below 2^24 and float64
    below 2^53 (graphs.MAX_VERTICES is below 2^31)."""
    n = rows.shape[1]
    sets = np.zeros((n, len(column_sets)), np.float32 if n < 1 << 24 else np.float64)
    for i, cols in enumerate(column_sets):
        sets[cols, i] = 1
    low, high = int(rows.min(initial=0)), int(rows.max(initial=0))
    A = max(-low, high) + 1
    counts = np.zeros((2 * A + 1, rows.shape[0], sets.shape[1]), dtype=sets.dtype)
    same = np.empty(rows.shape, dtype=sets.dtype)
    neg = (sign < 0)[:, None]
    for x in range(low, high + 1):
        per_set = np.equal(rows, x, out=same, casting="unsafe") @ sets
        np.copyto(counts[A + x], per_set, where=~neg)
        np.copyto(counts[A - x], per_set, where=neg)  # -f has the value -x there
    return A, counts


def _lowest_windows(counts: np.ndarray, width: int, size: int, budget: float):
    """The phase rule of both families: (top, found) for every row r of
    per-value counts ``counts[:, r]``, top the least index j from the row's
    least to its greatest value whose window j-width+1..j leaves at most
    ``budget`` of the ``size`` counted vertices outside, and found False
    where none does.  One scan from the least value up, each step on all
    rows at once."""
    # the count inside is an integer, so size - inside <= budget iff inside
    # >= need; need >= 1 keeps the top between the least and greatest value
    # (a window holds a value from the least one on, and past the greatest
    # it only loses them)
    if budget >= size:
        need = 1
    elif budget >= 0:
        need = size - math.floor(budget)
    else:  # negative or NaN: no window qualifies
        need = size + 1
    values = counts.shape[0]
    inside = np.zeros(counts.shape[1], dtype=counts.dtype)
    top = np.full(counts.shape[1], values)
    for j in range(values):
        inside += counts[j]
        if j >= width:
            inside -= counts[j - width]
        np.minimum(top, np.where(inside >= need, j, values), out=top)
    return top, top < values


def phases_lipschitz(g: Graph, rows, lam: float, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase interval of every row of a (count, n) integer array of
    M-Lipschitz functions, as (lo, hi) int64 arrays, constructed so that
    phase(-f) = -phase(f).

    For the larger of {f, -f} (the one whose first nonzero value is
    positive), the interval is {k..k+M} for the minimal k >= min(f) - M with
    |{v : f(v) outside {k..k+M}}| <= 2*lambda*n/d; the other sign gets the
    negated interval, and the zero function has phase {0}.  Raises
    PhaseError if some nonzero row has no such k.
    """
    d = require_regular(g)
    rows = np.asarray(rows)
    sign = _signs(rows)
    A, counts = _value_counts(rows, sign, [slice(None)])
    top, found = _lowest_windows(counts[:, :, 0], M + 1, rows.shape[1], 2 * lam * g.n / d)
    if not np.all(found | (sign == 0)):
        raise PhaseError(
            "no interval satisfies the count bound; lambda is not a valid "
            "expansion parameter for this graph"
        )
    base = np.where(sign == 0, 0, top - A - M)  # the zero function's phase is {0}
    top = np.where(sign == 0, 0, base + M)
    return np.where(sign < 0, -top, base), np.where(sign < 0, -base, top)


def phases_hom(g: Graph, rows, lam: float, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase (level, class index) of every row of a (count, n) integer array
    of homomorphisms pinned at ``root``, as int64 arrays.

    The class index is the smallest i (0 = class of the root) admitting a
    level k with |{v in V_i : f(v) != k}| <= 2*lambda*n/d.  The level is the
    smallest such k for the larger of {f, -f}; the other sign gets the
    negated level, so that phase(-f) = -phase(f) holds exactly (the
    smallest-k rule alone breaks the antisymmetry when several levels
    qualify); a level is a window of one value.  Raises PhaseError if some
    row has no qualifying class or, when lambda < d/3, violates the
    refinement bound |{v : |f(v)-k| >= 2}| <= 3*lambda*n/d.
    """
    d = require_regular(g)
    family_slope("hom", None, g)  # raises on a graph with no bipartition
    rows = np.asarray(rows)
    n = g.n // 2
    classes = root_classes(g, root)
    sign = _signs(rows)
    A, counts = _value_counts(rows, sign, [np.fromiter(c, np.int64, len(c)) for c in classes])
    budget = 2 * lam * n / d
    top0, in0 = _lowest_windows(counts[:, :, 0], 1, len(classes[0]), budget)
    top1, in1 = _lowest_windows(counts[:, :, 1], 1, len(classes[1]), budget)
    if not np.all(in0 | in1):
        raise PhaseError(
            "no (class, level) satisfies the count bound; lambda is not a valid "
            "expansion parameter for this graph"
        )
    class_index = np.where(in0, 0, 1)  # the root's class first
    level = np.where(in0, top0, top1)  # an index of counts until A is taken off
    if lam < d / 3:
        # |{v : |f(v) - level| >= 2}|: all vertices less those at level-1..level+1
        r = np.arange(rows.shape[0])
        near = counts[level - 1, r] + counts[level, r] + counts[level + 1, r]
        far = rows.shape[1] - (near[:, 0] + near[:, 1]).astype(np.int64)
        bad = np.flatnonzero(far > 3 * lam * n / d)
        if bad.size:
            raise PhaseError(f"refinement bound violated: {far[bad[0]]} > 3*lambda*n/d")
    level -= A
    return np.where(sign < 0, -level, level), class_index


def phase_windows(g: Graph, rows, lam: float, mode: str, M: int | None, root: int):
    """Phase (lo, hi) of every row of a (count, n) integer array in ``mode``:
    that of ``phases_lipschitz``, or (level, level) of ``phases_hom``."""
    family_slope(mode, M)  # raises on an unknown mode or a Lipschitz M below 1
    if mode == "lipschitz":
        return phases_lipschitz(g, rows, lam, M)
    level = phases_hom(g, rows, lam, root)[0]
    return level, level


def phase_lipschitz(g: Graph, values, lam: float, M: int) -> tuple[int, int]:
    """Phase interval (lo, hi) of one M-Lipschitz function, given as one
    integer per vertex (see ``phases_lipschitz``)."""
    lo, hi = phases_lipschitz(g, np.array([values], dtype=np.int64), lam, M)
    return int(lo[0]), int(hi[0])


def phase_hom(g: Graph, values, lam: float, root: int) -> tuple[int, int]:
    """Phase (level, class index) of one homomorphism pinned at ``root``,
    given as one integer per vertex (see ``phases_hom``)."""
    level, class_index = phases_hom(g, np.array([values], dtype=np.int64), lam, root)
    return int(level[0]), int(class_index[0])
