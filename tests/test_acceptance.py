"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run with  pytest -s tests/test_acceptance.py  to see the lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from liphom import (
    check_expansion_props,
    enumerate_functions,
    exhaustive_lambda,
    gen_random_bipartite_regular,
    gen_random_regular,
    gen_tree,
    mcmc_sample_array,
    phase_hom,
    phase_lipschitz,
    spectral_lambda,
    tree_dp,
    verify_counting,
)
from liphom.cli import main
from liphom.experiments import (
    HYPOTHESES_NOT_MET,
    ExperimentConfig,
    run_experiment,
)

from .conftest import (
    allowed_values,
    brute_force_count,
    c4,
    c6,
    count_connected_sets,
    hom_far_count,
    k33,
    k4,
    kmm,
    q3,
)


def report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_01_enumeration_oracle():
    t0 = time.perf_counter()
    ok = True
    # library counts
    ok &= enumerate_functions(k4(), 0, "lipschitz", M=1).count == 15
    ok &= enumerate_functions(c4(), 0, "hom").count == 6
    ok &= tree_dp(3, 2, "lipschitz", 1).total == 45
    ok &= tree_dp(4, 2, "lipschitz", 1).total == 115
    # independent brute-force assignment searches
    ok &= brute_force_count(k4(), {0: 0}, "lipschitz", 1, radius=3) == 15
    ok &= brute_force_count(c4(), {0: 0}, "hom", 1, radius=4) == 6
    for d, expected in ((3, 45), (4, 115)):
        t = gen_tree(d, 2)
        pins = {v: 0 for v in t.leaves}
        ok &= brute_force_count(t, pins, "lipschitz", 1, radius=2) == expected
    ok &= time.perf_counter() - t0 < 1.0
    report(1, "enumeration oracle", ok)


def test_criterion_02_tree_dp_vs_enumeration():
    ok = True
    for d, h, mode in ((3, 1, "lipschitz"), (3, 2, "lipschitz"), (3, 2, "hom")):
        M = 1 if mode == "lipschitz" else None
        gt = gen_tree(d, h, glued=True)
        res = enumerate_functions(gt, gt.glue, mode, M=M)
        dp = tree_dp(d, h, mode, M)
        ok &= res.count == dp.total
        for x in range(-h, h + 1):
            emp = Fraction(int((res.rows[:, 0] == x).sum()), res.count)
            ok &= emp == dp.marginal(0, x)
    report(2, "tree DP vs enumeration", ok)


def test_criterion_03_phase_laws():
    ok = True
    for g in (k4(), c6()):
        lam = exhaustive_lambda(g)
        budget = 2 * lam * g.n / g.degree
        for row in enumerate_functions(g, 0, "lipschitz", M=1).rows.tolist():
            lo, hi = phase_lipschitz(g, row, lam, 1)
            ok &= phase_lipschitz(g, [-x for x in row], lam, 1) == (-hi, -lo)
            ok &= sum(1 for x in row if not lo <= x <= hi) <= budget
    for g in (k33(), q3()):
        lam = exhaustive_lambda(g, "bipartite")
        d, n = g.degree, g.n // 2
        for row in enumerate_functions(g, 0, "hom").rows.tolist():
            level, class_index = phase_hom(g, row, lam, 0)
            ok &= phase_hom(g, [-x for x in row], lam, 0) == (-level, class_index)
            ok &= level % 2 == class_index % 2
            cls = sorted(
                g.bipartition[0] if (0 in g.bipartition[0]) == (class_index == 0) else g.bipartition[1]
            )
            ok &= sum(1 for v in cls if row[v] != level) <= 2 * lam * n / d
            if lam < d / 3:
                ok &= hom_far_count(row, level) <= 3 * lam * n / d
    report(3, "phase laws", ok)


def test_criterion_04_transformation_machinery():
    t0 = time.perf_counter()
    ok = True
    g = k4()
    lam = exhaustive_lambda(g)
    for v in range(1, 4):
        rep = verify_counting(g, 0, v, 1, "lipschitz", M=1, lam=lam)
        ok &= rep.all_passed
    for g in (q3(), k33()):
        lam = exhaustive_lambda(g, "bipartite")
        for v in range(1, g.n):
            rep = verify_counting(g, 0, v, 1, "hom", lam=lam)
            ok &= rep.all_passed
    ok &= time.perf_counter() - t0 < 30.0
    report(4, "transformation machinery", ok)


def test_criterion_05_exact_hom_theorem():
    ok = True
    for m in (2, 3, 4):
        g = kmm(m)
        lam = exhaustive_lambda(g, "bipartite")
        ok &= lam == 0.0
        rows = enumerate_functions(g, 0, "hom").rows.tolist()
        levels = [phase_hom(g, row, lam, 0)[0] for row in rows]
        tmax = 2 * m  # beyond any attainable deviation
        from liphom.graphs import ball

        for v in range(g.n):
            for t in range(1, tmax + 1):
                p = Fraction(
                    sum(1 for row, level in zip(rows, levels) if abs(row[v] - level) > t),
                    len(rows),
                )
                bound = math.exp(-len(ball(g, v, t)) / 3)
                ok &= float(p) <= bound
    report(5, "exact hom theorem on K_mm", ok)


def test_criterion_06_exact_tree_theorem():
    t0 = time.perf_counter()
    ok = 56 > 40 * 2 * math.log(2)
    dp = tree_dp(56, 2, "lipschitz", 1)
    p = dp.tail_probability(0, 0)
    ok &= p == Fraction(2 * 2**56 + 2, 3**56 + 2 * 2**56 + 2)
    ok &= float(p) <= math.exp(-5.6)
    dp3 = tree_dp(56, 3, "lipschitz", 1)
    lp = dp3.log_tail_probability(0, 1)
    ok &= lp + 1e-9 <= -56 * 55 / 10
    ok &= abs(lp + 1249.238) < 1.0
    ok &= time.perf_counter() - t0 < 60.0
    report(6, "exact tree theorem d=56", ok)


def _transition_graph_connected(g, mode, M):
    fam = enumerate_functions(g, 0, mode, M=M)
    states = {row: i for i, row in enumerate(map(tuple, fam.rows.tolist()))}
    seen = {0}
    stack = [tuple(fam.rows[0].tolist())]
    while stack:
        cur = stack.pop()
        for v in range(g.n):
            if v == 0:
                continue
            for x in allowed_values(g, cur, v, mode, M):
                nxt = list(cur)
                nxt[v] = x
                j = states[tuple(nxt)]
                if j not in seen:
                    seen.add(j)
                    stack.append(tuple(nxt))
    return len(seen) == fam.count


def test_criterion_07_mcmc_correctness():
    ok = True
    for g, mode, M in ((q3(), "hom", None), (k4(), "lipschitz", 1)):
        fam = enumerate_functions(g, 0, mode, M=M)
        arr = mcmc_sample_array(
            g, 0, mode, M=M, burnin=10_000, thin=10, n_samples=100_000, seed=17
        )
        counts = {tuple(row): 0 for row in fam.rows.tolist()}
        for row in arr:
            counts[tuple(int(x) for x in row)] += 1
        tv = 0.5 * sum(abs(c / len(arr) - 1 / fam.count) for c in counts.values())
        ok &= tv <= 0.02
        ok &= _transition_graph_connected(g, mode, M)
    report(7, "MCMC correctness", ok)


def test_criterion_08_expansion_toolkit():
    ok = True
    for seed in range(100):
        g = gen_random_regular(8, 3, seed)
        le = exhaustive_lambda(g)
        ls = spectral_lambda(g)
        ok &= le <= ls + 1e-9
        checks = check_expansion_props(g, le)
        ok &= all(c.passed for c in checks.values())
    # the propositions at exhaustive lambda on the largest enumerable sizes
    larger = [(gen_random_regular(n, 3, seed), "general") for n in (10, 12) for seed in range(5)]
    larger += [
        (gen_random_bipartite_regular(6, d, seed), "bipartite") for d in (2, 3, 4) for seed in range(5)
    ]
    for g, mode in larger:
        checks = check_expansion_props(g, exhaustive_lambda(g, mode), mode)
        ok &= all(c.passed for c in checks.values())
    for seed in range(20):
        n, d = 14, 3
        g = gen_random_regular(n, d, seed)
        for v in range(n):
            for a in range(1, 7):
                ok &= count_connected_sets(g, v, a) <= d ** (2 * a - 2)
    report(8, "expansion toolkit", ok)


def test_criterion_09_cli_determinism(tmp_path):
    ok = True
    gpath = str(tmp_path / "g.txt")
    main(["gen", "--type", "regular", "--n", "16", "--d", "3", "--seed", "9",
          "--out", gpath])
    cfgpath = tmp_path / "e.cfg"
    cfgpath.write_text(
        "kind = hom-exact\ngraph_type = complete_bipartite\nm = 3\nmode = hom\n"
        "targets = all\nt_max = 2\nlambda_source = exhaustive\nseed = 2\n"
    )
    cases = [
        lambda out: ["gen", "--type", "regular", "--n", "16", "--d", "3",
                     "--seed", "9", "--out", out],
        lambda out: ["sample", "--sampler", "mcmc", "--graph", gpath,
                     "--mode", "lipschitz", "--M", "1", "--burnin", "200",
                     "--thin", "5", "--n-samples", "50", "--seed", "4",
                     "--out", out],
        lambda out: ["enumerate", gpath, "--mode", "lipschitz", "--M", "1",
                     "--out", out],
        lambda out: ["experiment", str(cfgpath), "--out", out],
    ]
    for i, case in enumerate(cases):
        blobs = []
        for rep_i in range(3):
            out = str(tmp_path / f"o{i}_{rep_i}")
            assert main(case(out)) == 0
            with open(out, "rb") as fh:
                blobs.append(fh.read())
        ok &= blobs[0] == blobs[1] == blobs[2]
    report(9, "CLI determinism", ok)


def test_criterion_10_empirical_flatness():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        kind="deviation", graph_type="regular", n=4096, d=8, mode="lipschitz",
        M=1, v0=0, targets="1,17,333", t_min=1, t_max=5, sampler="mcmc",
        burnin=10_000, thin=10, n_samples=500, seed=13,
    )
    res = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0
    ok &= res.summary["hypotheses_met"] is False
    ok &= all(row["bound"] == HYPOTHESES_NOT_MET for row in res.rows)
    for v in (1, 17, 333):
        tail = [r["estimate"] for r in res.rows if r["vertex"] == v]
        ok &= all(a >= b for a, b in zip(tail, tail[1:]))
    report(10, "empirical flatness report", ok)
