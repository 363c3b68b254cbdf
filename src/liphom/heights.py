"""M-Lipschitz and homomorphism height functions, validation and phases."""

from __future__ import annotations

import numpy as np

from .graphs import Graph, GraphError

__all__ = [
    "PhaseError",
    "family_slope",
    "root_classes",
    "validate",
    "phase_lipschitz",
    "phase_hom",
    "phases_lipschitz",
    "phases_hom",
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
    for u in range(g.n):
        for w in g.adj[u]:
            if u < w:
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


def _histograms(rows: np.ndarray, column_sets) -> tuple[int, list[np.ndarray]]:
    """(A, counts): counts[i][r, A + x] = |{v in column_sets[i] : rows[r, v]
    = x}| for -A <= x <= A, where A is the largest |value|; a column set of
    None means every column.  Each value costs one ``rows == x`` comparison."""
    low, high = int(rows.min(initial=0)), int(rows.max(initial=0))
    width = 2 * max(-low, high) + 1
    counts = [np.zeros((rows.shape[0], width), dtype=np.int64) for _ in column_sets]
    for x in range(low, high + 1):
        same = rows == x
        for hist, cols in zip(counts, column_sets):
            hist[:, width // 2 + x] = (same if cols is None else same[:, cols]).sum(axis=1)
    return width // 2, counts


def _canonical(hist: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Value counts of each row's larger sign: reversed where sign < 0."""
    return np.where((sign < 0)[:, None], hist[:, ::-1], hist)


def phases_lipschitz(g: Graph, rows, lam: float, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase interval of every row of a (count, n) integer array of
    M-Lipschitz functions, as (lo, hi) int64 arrays, constructed so that
    phase(-f) = -phase(f).

    For the larger of {f, -f} (the one whose first nonzero value is
    positive), the interval is {k..k+M} for the minimal k >= min(f) - M with
    |{v : f(v) outside {k..k+M}}| <= 2*lambda*n/d; the other sign gets the
    negated interval, and the zero function has phase {0}.

    Each row's value counts are taken in its canonical sign, and the number
    of values in {x-M..x} is a difference of their cumulative sums, so the
    base is the smallest x from the row's minimum to its maximum whose window
    meets the bound, minus M.  Raises PhaseError if some nonzero row has no
    such x.
    """
    d = g.degree
    if d is None:
        raise GraphError("phase requires a regular graph")
    rows = np.asarray(rows)
    n = rows.shape[1]
    budget = 2 * lam * g.n / d
    sign = _signs(rows)
    A, (hist,) = _histograms(rows, [None])
    hist = _canonical(hist, sign)
    cum = np.cumsum(hist, axis=1)
    inside = cum.copy()  # inside[:, j] = |{v : f(v) in {x_j - M..x_j}}|, x_j = j - A
    inside[:, M + 1 :] -= cum[:, : max(cum.shape[1] - M - 1, 0)]
    j = np.arange(hist.shape[1])
    present = hist > 0
    first, last = present.argmax(axis=1), j[-1] - present[:, ::-1].argmax(axis=1)
    ok = (n - inside <= budget) & (first[:, None] <= j) & (j <= last[:, None])
    if not np.all(ok.any(axis=1) | (sign == 0)):
        raise PhaseError(
            "no interval satisfies the count bound; lambda is not a valid "
            "expansion parameter for this graph"
        )
    base = np.where(sign == 0, 0, ok.argmax(axis=1) - A - M)  # the zero function's phase is {0}
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
    qualify).  Each row's value counts per color class are taken in its
    canonical sign.  Raises PhaseError if some row has no qualifying class
    or, when lambda < d/3, violates the refinement bound
    |{v : |f(v)-k| >= 2}| <= 3*lambda*n/d.
    """
    d = g.degree
    if d is None or g.bipartition is None:
        raise GraphError("phase requires a regular bipartite graph")
    rows = np.asarray(rows)
    n = g.n // 2
    budget = 2 * lam * n / d
    classes = root_classes(g, root)
    sign = _signs(rows)
    A, (total, *by_class) = _histograms(rows, [None, *map(sorted, classes)])
    level = np.zeros(rows.shape[0], dtype=np.int64)
    class_index = np.full(rows.shape[0], -1, dtype=np.int64)
    for i, hist in enumerate(by_class):
        hist = _canonical(hist, sign)
        ok = (hist > 0) & (len(classes[i]) - hist <= budget)
        hit = (class_index < 0) & ok.any(axis=1)
        level[hit] = ok.argmax(axis=1)[hit] - A
        class_index[hit] = i
    if (class_index < 0).any():
        raise PhaseError(
            "no (class, level) satisfies the count bound; lambda is not a valid "
            "expansion parameter for this graph"
        )
    level = np.where(sign < 0, -level, level)
    if lam < d / 3:
        # |{v : |f(v) - level| >= 2}| from the counts of level-1..level+1
        padded = np.pad(total, ((0, 0), (1, 1)))
        near = np.arange(rows.shape[0])[:, None], A + 1 + level[:, None] + np.arange(-1, 2)
        far = rows.shape[1] - padded[near].sum(axis=1)
        bad = np.flatnonzero(far > 3 * lam * n / d)
        if bad.size:
            raise PhaseError(f"refinement bound violated: {far[bad[0]]} > 3*lambda*n/d")
    return level, class_index


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
