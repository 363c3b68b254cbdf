"""M-Lipschitz and homomorphism height functions, validation and phases."""

from __future__ import annotations

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


def _histograms(rows: np.ndarray, sign: np.ndarray, column_sets) -> tuple[int, list[np.ndarray]]:
    """(A, counts): counts[i][r, A + x] = |{v in column_sets[i] : f(v) = x}|
    for |x| <= A, f row r in its canonical sign; A exceeds every |value| by
    1, so that x - 1 and x + 1 are in range.  One ``rows == x`` per value."""
    low, high = int(rows.min(initial=0)), int(rows.max(initial=0))
    width = 2 * max(-low, high) + 3
    counts = [np.zeros((rows.shape[0], width), dtype=np.int64) for _ in column_sets]
    for x in range(low, high + 1):
        same = rows == x
        for hist, cols in zip(counts, column_sets):
            hist[:, width // 2 + x] = same[:, cols].sum(axis=1)
    return width // 2, [np.where((sign < 0)[:, None], hist[:, ::-1], hist) for hist in counts]


def _window_counts(hist: np.ndarray, width: int) -> np.ndarray:
    """inside[:, j] = hist[:, j-width+1..j].sum(axis=1), by cumulative sums."""
    cum = np.cumsum(hist, axis=1)
    inside = cum.copy()
    inside[:, width:] -= cum[:, :-width]
    return inside


def _lowest_windows(hist: np.ndarray, width: int, size: int, budget: float):
    """The phase rule of both families: (top, found) for every row of value
    counts ``hist``, top the least column j from the row's least to its
    greatest value whose window j-width+1..j leaves at most ``budget`` of
    the ``size`` counted vertices outside, and found False where none does."""
    j = np.arange(hist.shape[1])
    present = hist > 0
    first, last = present.argmax(axis=1), j[-1] - present[:, ::-1].argmax(axis=1)
    ok = (size - _window_counts(hist, width) <= budget) & (first[:, None] <= j) & (j <= last[:, None])
    return ok.argmax(axis=1), ok.any(axis=1)


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
    A, (hist,) = _histograms(rows, sign, [slice(None)])
    top, found = _lowest_windows(hist, M + 1, rows.shape[1], 2 * lam * g.n / d)
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
    A, hists = _histograms(rows, sign, [sorted(c) for c in classes])
    budget = 2 * lam * n / d
    top0, in0 = _lowest_windows(hists[0], 1, len(classes[0]), budget)
    top1, in1 = _lowest_windows(hists[1], 1, len(classes[1]), budget)
    if not np.all(in0 | in1):
        raise PhaseError(
            "no (class, level) satisfies the count bound; lambda is not a valid "
            "expansion parameter for this graph"
        )
    class_index = np.where(in0, 0, 1)  # the root's class first
    level = np.where(in0, top0, top1)  # a column of hists until A is taken off
    if lam < d / 3:
        # |{v : |f(v) - level| >= 2}|: all vertices less the window level-1..level+1
        near = _window_counts(hists[0] + hists[1], 3)[np.arange(rows.shape[0]), level + 1]
        far = rows.shape[1] - near
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
