"""Exact counting, marginals and sampling of grounded functions on complete
trees.

Counts depend only on depth, so the bottom-up pass keeps one value table per
level, and the top-down pass (computed once, on the first marginal or tail
query) keeps one outside table per level.  Tables hold exact Python
integers; log values are logs of these exact numbers.

A vertex takes exactly one value, so the products outside[x] * counts[x] at
one depth sum to the total: a tail's numerator is the total less the terms
with |x| <= threshold.  Every probability is reduced against the total by
one gcd, and all those with the same gcd share one reduced denominator.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .graphs import GraphError, tree_level_children, tree_level_offsets
from .heights import family_slope

__all__ = ["TreeDP", "tree_dp", "tree_sample"]

if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+
    _coprime_fraction = Fraction._from_coprime_ints
else:

    def _coprime_fraction(num: int, den: int) -> Fraction:
        """num / den for coprime num and den > 0, without a second gcd."""
        return Fraction(num, den, _normalize=False)


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
    # exact tails by (depth, threshold)
    _tails: dict[tuple[int, int], Fraction] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # total // g by g = gcd(numerator, total): one object per distinct g
    _dens: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def total(self) -> int:
        return sum(self.counts[0].values())

    @property
    def log_total(self) -> float:
        return math.log(self.total)

    @property
    def slope(self) -> int:
        return family_slope(self.mode, self.M)

    @cached_property
    def _kids(self) -> list[int]:
        return tree_level_children(tree_level_offsets(self.d, self.h))

    @cached_property
    def _outside(self) -> tuple[dict[int, int], ...]:
        """One top-down pass: _outside[j][x] counts the completions of
        everything outside the subtree of a depth-j vertex with value x."""
        slope = self.slope
        # depth 0: nothing outside the root's subtree, so weight 1 for every
        # attainable root value
        g = {x: 1 for x in self.counts[0]}
        tables = [g]
        for m, child in zip(self._kids, self.counts[1:]):
            # each of the parent's m - 1 other children contributes its
            # window sum; every parent value in g has one
            sib = _window_sums(child, slope, self.mode)
            up = {p: gp * sib[p] ** (m - 1) for p, gp in g.items()}
            g = {x: w for x, w in _window_sums(up, slope, self.mode).items() if x in child}
            tables.append(g)
        return tuple(tables)

    def _check_depth(self, depth: int) -> None:
        if not (0 <= depth <= self.h):
            raise GraphError("depth out of range")

    def _probability(self, num: int) -> Fraction:
        """num / total, reduced; the only place a count meets the total."""
        g = math.gcd(num, self.total)
        den = self._dens.get(g)
        if den is None:
            den = self._dens[g] = self.total // g
        return _coprime_fraction(num // g, den)

    def marginal(self, depth: int, x: int) -> Fraction:
        """Exact P(f(v) = x) for any vertex v at the given depth."""
        self._check_depth(depth)
        return self._probability(self._outside[depth].get(x, 0) * self.counts[depth].get(x, 0))

    def tail_probability(self, depth: int, threshold: int) -> Fraction:
        """Exact P(|f(v)| > threshold) at the given depth."""
        key = (depth, threshold)
        p = self._tails.get(key)
        if p is None:
            self._check_depth(depth)
            # the complement of the tail: at most 2 * threshold + 1 products
            # (every key of _outside[depth] is a key of counts[depth])
            table = self.counts[depth]
            inside = sum(
                gx * table[x] for x, gx in self._outside[depth].items() if abs(x) <= threshold
            )
            p = self._tails[key] = self._probability(self.total - inside)
        return p

    def log_tail_probability(self, depth: int, threshold: int) -> float:
        """log P(|f(v)| > threshold), as log(numerator) - log(denominator) of
        the reduced exact tail.  Each log is within about an ulp of
        log(total), and the difference keeps that absolute error, so a small
        result loses relative precision: the error is bounded by about
        2^-52 log(total), not by 2^-52 times the result."""
        p = self.tail_probability(depth, threshold)
        if p == 0:
            return -math.inf
        return math.log(p.numerator) - math.log(p.denominator)


def _compatible(p: int, slope: int, mode: str):
    if mode == "hom":
        return (p - 1, p + 1)
    return range(p - slope, p + slope + 1)


def _window_sums(table: dict[int, int], slope: int, mode: str) -> dict[int, int]:
    """out[p] = sum of table[y] over values y compatible with p (the relation
    is symmetric, so each y adds its count to every p compatible with it)."""
    out: dict[int, int] = {}
    for y, c in table.items():
        for p in _compatible(y, slope, mode):
            out[p] = out.get(p, 0) + c
    return out


def tree_dp(d: int, h: int, mode: str = "lipschitz", M: int | None = 1) -> TreeDP:
    """Bottom-up exact DP over value tables; one table per level."""
    slope = family_slope(mode, M)
    kids = tree_level_children(tree_level_offsets(d, h))
    if mode == "hom":
        M = None

    counts: list[dict[int, int]] = [{0: 1}]
    for m in reversed(kids):
        counts.insert(0, {x: w**m for x, w in _window_sums(counts[0], slope, mode).items()})

    return TreeDP(d=d, h=h, mode=mode, M=M, counts=tuple(counts))


def tree_sample(dp: TreeDP, seed: int) -> list[int]:
    """Exact uniform grounded function, sampled top-down from the DP counts,
    as one value per vertex of gen_tree(d, h) in its BFS numbering; every
    leaf is 0.  Deterministic per seed.
    """
    offsets = tree_level_offsets(dp.d, dp.h)
    rng = random.Random((seed, dp.d, dp.h, dp.mode, dp.M).__repr__())
    slope = dp.slope

    def weights(table: dict[int, int], support) -> tuple[list[int], list[int]]:
        # the values of support in table, increasing, and their running counts
        xs = sorted(x for x in support if x in table)
        return xs, list(accumulate(table[x] for x in xs))

    def draw(xs: list[int], cum: list[int]) -> int:
        # the first value whose running count exceeds a uniform draw below
        # the total
        return xs[bisect_right(cum, rng.randrange(cum[-1]))]

    values = [0] * offsets[-1]
    values[0] = draw(*weights(dp.counts[0], dp.counts[0]))
    # leaves (level h) stay 0; draws go in vertex order, parents first, and
    # the i-th vertex of level j + 1 hangs from vertex offsets[j] + i // kids
    for j, kids in enumerate(dp._kids[:-1]):
        table = dp.counts[j + 1]
        below: dict[int, tuple[list[int], list[int]]] = {}  # by parent value
        for i, w in enumerate(range(offsets[j + 1], offsets[j + 2])):
            p = values[offsets[j] + i // kids]
            if p not in below:
                below[p] = weights(table, _compatible(p, slope, dp.mode))
            values[w] = draw(*below[p])
    return values
