"""Exact counting, marginals and sampling of grounded functions on complete
trees.

Counts depend only on depth, so the bottom-up pass keeps one value table per
level, and the top-down pass (computed once, on the first marginal or tail
query) keeps one outside table per level.  Tables hold exact Python
integers; log values are logs of these exact numbers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .graphs import GraphError, tree_level_offsets
from .heights import HeightFunction, homomorphism, lipschitz

__all__ = ["TreeDP", "tree_dp", "tree_sample"]


@dataclass(frozen=True)
class TreeDP:
    """Per-level subtree counts for grounded functions on the complete
    (d-1)-ary tree of height h.

    counts[j][x] is the number of grounded extensions of the subtree below a
    depth-j vertex carrying value x.  mode is "lipschitz" (slope M) or "hom".
    """

    d: int
    h: int
    mode: str
    M: int | None
    counts: tuple[dict[int, int], ...]
    # exact tails by (depth, threshold); each is reduced once
    _tails: dict[tuple[int, int], Fraction] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def total(self) -> int:
        return sum(self.counts[0].values())

    @property
    def log_total(self) -> float:
        return math.log(self.total)

    def _slope(self) -> int:
        return self.M if self.mode == "lipschitz" else 1

    def _children(self, depth: int) -> int:
        return self.d if depth == 0 else self.d - 1

    @cached_property
    def _outside(self) -> tuple[dict[int, int], ...]:
        """One top-down pass: _outside[j][x] counts the completions of
        everything outside the subtree of a depth-j vertex with value x."""
        slope = self._slope()
        # depth 0: nothing outside the root's subtree, so weight 1 for every
        # attainable root value
        g = {x: 1 for x in self.counts[0]}
        tables = [g]
        for j in range(1, self.h + 1):
            m = self._children(j - 1)
            child = self.counts[j]
            # sibling factor: each of the parent's other children contributes
            # its window sum
            win_parent = _window_sums(child, slope, self.mode)
            new_g: dict[int, int] = {}
            for p, gp in g.items():
                sib = win_parent.get(p, 0) ** (m - 1)
                if sib == 0:
                    continue
                w = gp * sib
                for x in _compatible(p, slope, self.mode):
                    if x in child:
                        new_g[x] = new_g.get(x, 0) + w
            g = new_g
            tables.append(g)
        return tuple(tables)

    def _check_depth(self, depth: int) -> None:
        if not (0 <= depth <= self.h):
            raise GraphError("depth out of range")

    def marginal(self, depth: int, x: int) -> Fraction:
        """Exact P(f(v) = x) for any vertex v at the given depth."""
        self._check_depth(depth)
        num = self._outside[depth].get(x, 0) * self.counts[depth].get(x, 0)
        return Fraction(num, self.total)

    def tail_probability(self, depth: int, threshold: int) -> Fraction:
        """Exact P(|f(v)| > threshold) at the given depth."""
        key = (depth, threshold)
        p = self._tails.get(key)
        if p is None:
            self._check_depth(depth)
            table = self.counts[depth]
            num = sum(
                gx * table.get(x, 0)
                for x, gx in self._outside[depth].items()
                if abs(x) > threshold
            )
            p = self._tails[key] = Fraction(num, self.total)
        return p

    def log_tail_probability(self, depth: int, threshold: int) -> float:
        """log P(|f(v)| > threshold): the log of the exact tail, taken from
        its reduced numerator and denominator."""
        p = self.tail_probability(depth, threshold)
        if p == 0:
            return -math.inf
        return _log_of_fraction(p)

    def root_marginal(self, x: int) -> Fraction:
        return Fraction(self.counts[0].get(x, 0), self.total)


def _log_of_fraction(q: Fraction) -> float:
    # math.log handles arbitrary-size integers exactly enough (< 1e-15 rel)
    return math.log(q.numerator) - math.log(q.denominator)


def _compatible(p: int, slope: int, mode: str):
    if mode == "hom":
        return (p - 1, p + 1)
    return range(p - slope, p + slope + 1)


def _window_sums(table: dict[int, int], slope: int, mode: str) -> dict[int, int]:
    """out[p] = sum of table[y] over child values y compatible with parent
    value p."""
    out: dict[int, int] = {}
    keys = set()
    for y in table:
        for p in _compatible(y, slope, mode):
            keys.add(p)
    for p in keys:
        out[p] = sum(table.get(y, 0) for y in _compatible(p, slope, mode))
    return out


def tree_dp(d: int, h: int, mode: str = "lipschitz", M: int | None = 1) -> TreeDP:
    """Bottom-up exact DP over value tables; one table per level."""
    if mode not in ("lipschitz", "hom"):
        raise ValueError(f"unknown mode {mode!r}")
    if d < 3 or h < 1:
        raise GraphError("need d >= 3 and h >= 1")
    if mode == "lipschitz" and (M is None or M < 1):
        raise ValueError("lipschitz mode needs a positive M")
    if mode == "hom":
        M = None
    slope = M if mode == "lipschitz" else 1

    counts: list[dict[int, int]] = [dict() for _ in range(h + 1)]
    counts[h] = {0: 1}
    for j in range(h - 1, -1, -1):
        m = d if j == 0 else d - 1
        win = _window_sums(counts[j + 1], slope, mode)
        counts[j] = {x: w**m for x, w in win.items() if w > 0}

    return TreeDP(d=d, h=h, mode=mode, M=M, counts=tuple(counts))


def tree_sample(dp: TreeDP, seed: int) -> HeightFunction:
    """Exact uniform grounded function, sampled top-down from the DP counts.

    The returned function lives on gen_tree(d, h) with its BFS numbering.
    Deterministic per seed.
    """
    # BFS numbering: level j is offsets[j] .. offsets[j + 1] - 1 and the
    # children of its i-th vertex are contiguous in level j + 1
    offsets = tree_level_offsets(dp.d, dp.h)
    rng = random.Random((seed, dp.d, dp.h, dp.mode, dp.M).__repr__())
    slope = dp._slope()

    values = [0] * offsets[-1]

    def draw(table_items) -> int:
        items = sorted(table_items)
        total = sum(w for _, w in items)
        r = rng.randrange(total)
        acc = 0
        for x, w in items:
            acc += w
            if r < acc:
                return x
        raise AssertionError("weighted draw fell through")

    values[0] = draw(dp.counts[0].items())
    # leaves (level h) stay 0; draws go in vertex order, parents first
    for j in range(dp.h - 1):
        kids = dp._children(j)
        table = dp.counts[j + 1]
        first = offsets[j + 1]
        for i, v in enumerate(range(offsets[j], offsets[j + 1])):
            p = values[v]
            items = [(y, table[y]) for y in _compatible(p, slope, dp.mode) if y in table]
            for w in range(first + i * kids, first + (i + 1) * kids):
                values[w] = draw(items)
    # grounded functions are pinned at the leaves, not at the tree root;
    # designate the first leaf as the HeightFunction root
    v0 = offsets[dp.h]
    if dp.mode == "hom":
        return homomorphism(values, v0)
    return lipschitz(values, v0, dp.M)
