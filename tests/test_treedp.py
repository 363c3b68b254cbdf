import decimal
import hashlib
import math
from fractions import Fraction

import pytest

from liphom import GraphError, enumerate_functions, gen_tree, tree_dp, tree_sample, validate
from liphom.cli import main
from liphom.graphs import distances_from, tree_level_offsets
from liphom.treedp import TreeDP

from .conftest import FAMILY_ERRORS


def test_totals_small():
    assert tree_dp(3, 2, "lipschitz", 1).total == 45
    assert tree_dp(4, 2, "lipschitz", 1).total == 115


def test_root_marginal():
    dp = tree_dp(3, 2, "lipschitz", 1)
    assert dp.marginal(0, 0) == Fraction(27, 45) == Fraction(3, 5)
    assert dp.marginal(0, 1) == Fraction(8, 45)
    assert dp.marginal(0, 2) == Fraction(1, 45)
    assert sum(dp.marginal(0, x) for x in range(-2, 3)) == 1


def test_marginals_sum_to_one_all_depths():
    dp = tree_dp(3, 3, "lipschitz", 1)
    for depth in range(4):
        total = sum(dp.marginal(depth, x) for x in range(-4, 5))
        assert total == 1


def test_value_support_invariant():
    dp = tree_dp(3, 3, "lipschitz", 2)
    for j, table in enumerate(dp.counts):
        dist_leaf = dp.h - j
        assert all(abs(x) <= 2 * dist_leaf for x in table)
    dph = tree_dp(3, 3, "hom", None)
    for j, table in enumerate(dph.counts):
        dist_leaf = dph.h - j
        assert all(abs(x) <= dist_leaf and (x - dist_leaf) % 2 == 0 for x in table)


def test_dp_matches_enumeration():
    # glued-tree enumeration realizes the grounded family exactly; its
    # internal vertices keep the tree's BFS numbering and the glue vertex
    # stands for every leaf
    cases = [(3, h, "lipschitz", 1) for h in (1, 2, 3)]
    cases += [(3, h, "lipschitz", 2) for h in (1, 2)]
    cases += [(3, h, "hom", None) for h in (1, 2, 3)]
    cases += [(4, h, mode, M) for h in (1, 2) for mode, M in (("lipschitz", 1), ("lipschitz", 2))]
    cases += [(4, h, "hom", None) for h in (1, 2, 3)]
    for d, h, mode, M in cases:
        gt = gen_tree(d, h, glued=True)
        res = enumerate_functions(gt, gt.glue, mode, M=M)
        dp = tree_dp(d, h, mode, M)
        assert res.count == dp.total
        offsets = tree_level_offsets(d, h)
        levels = [(offsets[j], offsets[j + 1] - 1) for j in range(h)] + [(gt.glue,)]
        span = (M or 1) * h
        for depth, vertices in enumerate(levels):
            for v in vertices:
                seen = res.rows[:, v].tolist()
                for x in range(-span - 1, span + 2):
                    assert dp.marginal(depth, x) == Fraction(seen.count(x), res.count)
                for thr in range(span + 1):
                    hits = sum(1 for y in seen if abs(y) > thr)
                    assert dp.tail_probability(depth, thr) == Fraction(hits, res.count)


def _outside_per_depth(dp, depth):
    """Top-down outside table at one depth, rebuilt from the root on every
    call: counts of the completions outside a depth-``depth`` subtree."""
    slope = dp.M if dp.mode == "lipschitz" else 1

    def compatible(p):
        return (p - 1, p + 1) if dp.mode == "hom" else range(p - slope, p + slope + 1)

    g = {x: 1 for x in dp.counts[0]}
    for j in range(1, depth + 1):
        siblings = (dp.d if j == 1 else dp.d - 1) - 1
        new_g = {}
        for p, gp in g.items():
            sib = sum(dp.counts[j].get(y, 0) for y in compatible(p)) ** siblings
            for x in compatible(p):
                if x in dp.counts[j]:
                    new_g[x] = new_g.get(x, 0) + gp * sib
        g = new_g
    return g


@pytest.mark.parametrize("d", (3, 4))
@pytest.mark.parametrize("mode, M", (("lipschitz", 1), ("lipschitz", 2), ("hom", None)))
def test_cached_pass_matches_per_depth_recomputation(d, mode, M):
    for h in range(1, 7):
        dp = tree_dp(d, h, mode, M)
        span = (M or 1) * h
        for depth in range(h + 1):
            g = _outside_per_depth(dp, depth)
            table = dp.counts[depth]
            for x in range(-span - 1, span + 2):
                num = g.get(x, 0) * table.get(x, 0)
                assert dp.marginal(depth, x) == Fraction(num, dp.total)
            for thr in range(span + 1):
                num = sum(g.get(x, 0) * c for x, c in table.items() if abs(x) > thr)
                q = Fraction(num, dp.total)
                assert dp.tail_probability(depth, thr) == q
                assert dp.tail_probability(depth, thr) is dp.tail_probability(depth, thr)
                log_q = math.log(q.numerator) - math.log(q.denominator) if q else -math.inf
                assert dp.log_tail_probability(depth, thr) == log_q


def test_depth_out_of_range():
    dp = tree_dp(3, 2, "lipschitz", 1)
    for depth in (-1, 3):
        with pytest.raises(GraphError):
            dp.marginal(depth, 0)
        with pytest.raises(GraphError):
            dp.tail_probability(depth, 0)


def test_log_mirror_accuracy():
    dp = tree_dp(3, 3, "lipschitz", 1)
    assert dp.log_total == math.log(dp.total)
    p = dp.tail_probability(0, 0)
    assert math.isclose(
        dp.log_tail_probability(0, 0),
        math.log(p.numerator) - math.log(p.denominator),
        rel_tol=1e-9,
    )


def test_tail_probability_monotone():
    dp = tree_dp(3, 3, "lipschitz", 1)
    probs = [dp.tail_probability(0, thr) for thr in range(0, 4)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    assert probs[-1] == 0


def test_d56_exact_theorem_values():
    dp = tree_dp(56, 2, "lipschitz", 1)
    p = dp.tail_probability(0, 0)
    assert p == Fraction(2 * 2**56 + 2, 3**56 + 2 * 2**56 + 2)
    assert float(p) <= math.exp(-5.6)
    dp3 = tree_dp(56, 3, "lipschitz", 1)
    lp = dp3.log_tail_probability(0, 1)
    assert lp <= -56 * 55 / 10


def test_tree_sample_valid_and_deterministic():
    dp = tree_dp(3, 2, "lipschitz", 1)
    t = gen_tree(3, 2)
    f1 = tree_sample(dp, 7)
    f2 = tree_sample(dp, 7)
    assert f1 == f2
    assert validate(t, f1, min(t.leaves), "lipschitz", 1) == []
    assert all(f1[v] == 0 for v in t.leaves)


def test_tree_sample_distribution():
    dp = tree_dp(3, 2, "lipschitz", 1)
    counts = {}
    n = 3000
    for seed in range(n):
        f = tuple(tree_sample(dp, seed))
        counts[f] = counts.get(f, 0) + 1
    assert len(counts) == dp.total
    tv = 0.5 * sum(abs(c / n - 1 / dp.total) for c in counts.values())
    assert tv <= 0.1


def test_hom_tree_sample_parity():
    dp = tree_dp(3, 2, "hom", None)
    t = gen_tree(3, 2)
    f = tree_sample(dp, 1)
    depth = distances_from(t, t.root)
    for v in range(t.n):
        assert (f[v] - (dp.h - depth[v])) % 2 == 0


def test_preconditions():
    with pytest.raises(Exception):
        tree_dp(2, 2, "lipschitz", 1)
    with pytest.raises(Exception):
        tree_dp(3, 0, "lipschitz", 1)
    with pytest.raises(ValueError):
        tree_dp(3, 2, "lipschitz", 0)


# every tree is bipartite: the hom case of FAMILY_ERRORS cannot arise
@pytest.mark.parametrize("mode, M, message", [case for case in FAMILY_ERRORS if case[0] != "hom"])
def test_tree_dp_rejects_bad_family(mode, M, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        tree_dp(3, 2, mode=mode, M=M)
    with pytest.raises(ValueError, match=f"^{message}$"):
        tree_sample(TreeDP(d=3, h=2, mode=mode, M=M, counts=({0: 1},) * 3), 0)


@pytest.mark.parametrize("mode, M", (("lipschitz", 1), ("lipschitz", 2), ("hom", None)))
def test_log_tail_error_is_bounded_by_log_total(mode, M):
    # the difference of two logs near log(total) keeps their absolute error:
    # against a 60-digit evaluation, within 2^-50 log(total) on every
    # nonzero tail of d = 3, h <= 12
    ctx = decimal.Context(prec=60)
    for h in range(1, 13):
        dp = tree_dp(3, h, mode, M)
        for depth in range(h + 1):
            for thr in range((M or 1) * (h - depth)):
                p = dp.tail_probability(depth, thr)
                want = ctx.ln(decimal.Decimal(p.numerator)) - ctx.ln(decimal.Decimal(p.denominator))
                err = abs(decimal.Decimal(dp.log_tail_probability(depth, thr)) - want)
                assert err <= decimal.Decimal(2.0**-50 * dp.log_total), (h, depth, thr)


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def test_tree_exact_outputs_keep_their_bytes(tmp_path, monkeypatch):
    # the three seed-1 outputs of the tree-exact benchmark, in its byte
    # formats: sample file; "depth thr num:x den:x repr(log)" query lines;
    # report, NUL, config sidecar
    monkeypatch.chdir(tmp_path)
    d, h, t_max, seed = 3, 15, 3, 1
    starts = tree_level_offsets(d, h)[:-1]
    argv = ["sample", "--sampler", "tree", "--d", "3", "--h", "14", "--M", "1",
            "--n-samples", "4", "--seed", str(seed), "--out", "tree.txt"]
    assert main(argv) == 0
    assert _sha1((tmp_path / "tree.txt").read_bytes()) == "5f4030838a719cc14f04ca21a69a8a0fc1f3cf23"

    dp = tree_dp(d, h, mode="lipschitz", M=1)
    lines = []
    for depth in range(h + 1):
        for thr in range(t_max):
            q = dp.tail_probability(depth, thr)
            lq = dp.log_tail_probability(depth, thr)
            lines.append(f"{depth} {thr} {q.numerator:x} {q.denominator:x} {lq!r}\n")
    assert _sha1("".join(lines).encode()) == "16cf1fefec8a36908c117b5aca63aa9c0f47d0e6"

    (tmp_path / "tree.cfg").write_text(
        f"kind = tree\nd = {d}\nh = {h}\nM = 1\ntargets = {','.join(map(str, starts))}\n"
        f"t_max = {t_max}\nseed = {seed}\n"
    )
    assert main(["experiment", "tree.cfg", "--out", "tree.csv"]) == 0
    report = (tmp_path / "tree.csv").read_bytes() + b"\0" + (tmp_path / "tree.csv.config").read_bytes()
    assert _sha1(report) == "1d87967e9e6e556dab6b84c10afb12fc3ec99fdc"


@pytest.mark.parametrize("mode, M", (("hom", None), ("lipschitz", 2)))
def test_tree_sample_keeps_its_bytes(mode, M):
    text = []
    for d in (3, 4):
        for h in range(1, 6):
            dp = tree_dp(d, h, mode, M)
            for seed in range(4):
                values = tree_sample(dp, seed)
                text.append(f"{d} {h} {seed}: {' '.join(map(str, values))}\n")
    assert _sha1("".join(text).encode()) == {
        "hom": "a969bf52562fcf35fcbefcd655f8844357761bbd",
        "lipschitz": "45b0ce3d469feb3cd2fca5ba103ccc07cd65dba0",
    }[mode]
