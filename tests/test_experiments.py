import decimal
import hashlib
import math
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from liphom import (
    ExperimentConfig,
    GraphError,
    emit_report,
    enumerate_functions,
    experiments,
    mcmc_sample_array,
    parse_config,
    run_experiment,
    tree_dp,
)
from liphom.cli import main
from liphom.graphs import distances_from, graph_to_text, tree_level_offsets
from liphom.experiments import HYPOTHESES_NOT_MET, result_to_text

from .conftest import c6, k4, q3, reference_phase_hom, reference_phase_lipschitz


def test_parse_config_roundtrip():
    cfg = parse_config(
        """
        # a comment
        kind = deviation
        graph_type = complete_bipartite
        m = 2            # inline comment
        mode = hom
        t_max = 2
        seed = 9
        """
    )
    assert cfg.kind == "deviation"
    assert cfg.m == 2 and cfg.seed == 9 and cfg.t_max == 2
    assert cfg.mode == "hom"


def test_parse_config_errors():
    with pytest.raises(ValueError):
        parse_config("no equals sign here")
    with pytest.raises(ValueError):
        parse_config("graph_type = file")  # kind missing
    with pytest.raises(ValueError, match="^config M = '1.5' does not read as int$"):
        parse_config("kind = deviation\nM = 1.5\n")
    with pytest.raises(ValueError, match="^config key 'seed' is given twice$"):
        parse_config("kind = deviation\nseed = 1\nseed = 2\n")


@pytest.mark.parametrize(
    "key, value",
    [
        ("sampler", "exakt"),
        ("lambda_source", "exhaustiv"),
        ("mode", "homm"),
        ("kind", "deviaton"),
        ("graph_type", "regullar"),
    ],
)
def test_config_rejects_unknown_choice(key, value):
    kwargs = {"kind": "deviation", key: value}
    with pytest.raises(ValueError, match=f"{key} = '{value}'"):
        ExperimentConfig(**kwargs)
    with pytest.raises(ValueError, match=f"{key} = '{value}'"):
        parse_config("".join(f"{k} = {v}\n" for k, v in kwargs.items()))


@pytest.mark.parametrize(
    "text, key",
    [
        ("lambda_source = explicit\n", "lambda_value"),
        ("lambda_value = 0.25\n", "lambda_value = 0.25"),
        ("lambda_source = exhaustive\nlambda_value = 0.25\n", "lambda_value = 0.25"),
    ],
)
def test_config_rejects_contradictory_lambda(text, key):
    with pytest.raises(ValueError, match=key):
        parse_config("kind = deviation\n" + text)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="'n_sample'"):
        parse_config("kind = deviation\nn_sample = 5\n")


def test_config_hash_stable():
    a = parse_config("kind = deviation\nseed = 1")
    b = parse_config("seed = 1\nkind = deviation")
    assert a.hash() == b.hash()
    c = parse_config("kind = deviation\nseed = 2")
    assert a.hash() != c.hash()


def hom_cfg(**kw):
    base = dict(
        kind="hom-exact",
        graph_type="complete_bipartite",
        m=2,
        mode="hom",
        v0=0,
        targets="all",
        t_min=1,
        t_max=3,
        lambda_source="exhaustive",
        seed=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_hom_exact_zero_tail():
    res = run_experiment(hom_cfg())
    assert res.summary["hypotheses_met"] is True
    assert res.rows
    for row in res.rows:
        assert row["estimate"] == 0.0
        assert row["exact"] == "0/1"
        assert isinstance(row["bound"], float)
        assert row["estimate"] <= row["bound"]


@pytest.mark.parametrize(
    "mode, predicates", [("lipschitz", {"M-good(1)": False}), ("hom", {"good-bi": True})]
)
def test_deviation_scores_only_its_mode_predicate(mode, predicates):
    # K_{6,6} has class-pair lambda 0, so good-bi holds there, but a
    # lipschitz run's lambda is the general one: good-bi is not scored at it
    res = run_experiment(hom_cfg(kind="deviation", m=6, mode=mode, M=1, targets="1", t_max=1))
    assert res.summary["predicates"] == predicates
    assert res.summary["hypotheses_met"] is next(iter(predicates.values()))


def test_hom_exact_reports_its_own_config(tmp_path):
    # the run reads the config it was given, not a kind = deviation copy
    cfg = hom_cfg()
    res = run_experiment(cfg)
    assert res.config == cfg
    assert res.rows and {row["config_hash"] for row in res.rows} == {cfg.hash()}
    path = tmp_path / "h.csv"
    emit_report(res, path)
    lines = (tmp_path / "h.csv.config").read_text().splitlines()
    assert "kind = hom-exact" in lines and "kind = deviation" not in lines
    assert hom_cfg(kind="deviation").hash() != cfg.hash()


def test_deviation_mcmc_marker():
    cfg = ExperimentConfig(
        kind="deviation",
        graph_type="regular",
        n=16,
        d=3,
        mode="lipschitz",
        M=1,
        v0=0,
        targets="1,2",
        t_min=1,
        t_max=3,
        sampler="mcmc",
        burnin=500,
        thin=5,
        n_samples=400,
        seed=4,
    )
    res = run_experiment(cfg)
    assert res.summary["hypotheses_met"] is False
    for row in res.rows:
        assert row["bound"] == HYPOTHESES_NOT_MET
    # tail non-increasing in t per vertex
    for v in (1, 2):
        tail = [r["estimate"] for r in res.rows if r["vertex"] == v]
        assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_tree_kind_exact_bound():
    cfg = ExperimentConfig(
        kind="tree", graph_type="tree", d=56, h=2, mode="lipschitz", M=1,
        targets="0", t_min=1, t_max=1, seed=0,
    )
    res = run_experiment(cfg)
    assert res.summary["hypotheses_met"] is True
    (row,) = res.rows
    assert row["note"] == "log-bound"
    assert row["estimate"] <= row["bound"]  # log-domain comparison
    assert row["bound"] == -56 / 10


@pytest.mark.parametrize(
    "d, M, heights", ((56, 1, (1, 2, 3, 4)), (80, 1, (1, 2, 3)), (133, 2, (1, 2, 3)))
)
def test_tree_kind_bound_holds_on_every_bound_row(d, M, heights):
    # every depth and every t <= h, at the sizes the exact DP reaches
    for h in heights:
        starts = tree_level_offsets(d, h)[:-1]
        cfg = ExperimentConfig(
            kind="tree", d=d, h=h, M=M, targets=",".join(map(str, starts)), t_max=h
        )
        res = run_experiment(cfg)
        assert res.summary["hypotheses_met"] is True
        assert len(res.rows) == h * len(starts)
        for row in res.rows:
            gap = h - starts.index(row["vertex"]) - row["t"]
            if row["note"] == "log-bound":
                assert gap > 0 and gap % 2 == 1
                assert row["estimate"] <= row["bound"]  # log-domain comparison
            else:
                assert not (gap > 0 and gap % 2 == 1)
                assert row["bound"] == HYPOTHESES_NOT_MET


def test_tree_kind_past_int_str_digit_limit(tmp_path):
    # at h=13 the exact tails have more digits than str(int) accepts; the
    # report converts them without changing the decimal context or the limit
    before = (decimal.getcontext(), repr(decimal.getcontext()), sys.get_int_max_str_digits())
    d, h = 3, 13
    starts = tree_level_offsets(d, h)[:-1]
    cfg = tmp_path / "tree.cfg"
    cfg.write_text(
        f"kind = tree\nd = {d}\nh = {h}\nM = 1\nt_max = 2\n"
        f"targets = {','.join(map(str, starts))}\n"
    )
    out = tmp_path / "tree.csv"
    assert main(["experiment", str(cfg), "--out", str(out)]) == 0
    after = (decimal.getcontext(), repr(decimal.getcontext()), sys.get_int_max_str_digits())
    assert after[0] is before[0] and after[1:] == before[1:]
    lines = out.read_text().splitlines()
    cols = lines[0].split(",")
    dp = tree_dp(d, h, "lipschitz", 1)
    assert len(lines) == 1 + 2 * len(starts)
    longest = 0
    for line in lines[1:]:
        row = dict(zip(cols, line.split(",")))
        depth = starts.index(int(row["vertex"]))
        num, den = row["exact"].split("/")
        assert num.isdigit() and den.isdigit()
        longest = max(longest, len(num), len(den))
        q = Fraction(int(Decimal(num)), int(Decimal(den)))
        assert q == dp.tail_probability(depth, int(row["t"]) - 1)
    assert longest > sys.get_int_max_str_digits() > 0


def test_exact_digits_match_one_decimal_conversion():
    # oracle: the former conversion, one Decimal(int) of the whole integer
    cut = experiments._DIRECT_BITS
    k10 = math.ceil(cut / math.log2(10))  # the least k with 10^k past the cutoff
    assert (10 ** (k10 - 1)).bit_length() <= cut < (10**k10).bit_length()
    powers = [2**k for k in (1, 2, cut - 1, cut, cut + 1, 2 * cut, 2 * cut + 1, 5 * cut + 3)]
    powers += [10**k for k in (1, k10 - 1, k10, k10 + 1, cut, 3 * cut)]
    cases = [0, 1] + [p + e for p in powers for e in (-1, 0)]
    rng = random.Random(0)
    cases += [rng.getrandbits(b) for b in (300_000, *(rng.randrange(1, 300_001) for _ in range(8)))]
    digits = experiments._ExactDigits()
    for n in cases:
        want = format(decimal.Decimal(n), "f")
        assert digits(n) == want, n.bit_length()
        assert digits(n, keep=True) == want
        assert digits(n) == want  # from the kept digits when n is past the cutoff


def test_tree_kind_ignores_repeated_targets():
    # the rows of targets = 1,1 are those of targets = 1; only the config
    # hash column tells the two configs apart
    once, twice = (
        ExperimentConfig(kind="tree", d=3, h=3, M=1, targets=t, t_max=2) for t in ("1", "1,1")
    )
    text = result_to_text(run_experiment(twice), "csv")
    assert text.replace(twice.hash(), once.hash()) == result_to_text(run_experiment(once), "csv")


def test_tree_kind_rejects_out_of_range_target():
    for v in (-1, 10):
        cfg = ExperimentConfig(kind="tree", d=3, h=2, M=1, targets=str(v), t_max=1)
        with pytest.raises(GraphError):
            run_experiment(cfg)


@pytest.mark.parametrize("targets", ["1,x", "", "1,,2", "al", "0.5"])
def test_config_rejects_malformed_targets(targets):
    with pytest.raises(ValueError, match=re.escape(f"config targets = {targets!r}")):
        ExperimentConfig(kind="deviation", graph_type="regular", n=8, d=3, targets=targets)
    with pytest.raises(ValueError, match="config targets"):
        parse_config(f"kind = tree\nd = 3\nh = 2\ntargets = {targets}\n")


@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig(kind="deviation", graph_type="regular", n=16, d=3, targets="1,99",
                         sampler="mcmc", burnin=10, thin=1, n_samples=5),
        ExperimentConfig(kind="deviation", graph_type="bipartite", n=8, d=3, mode="hom",
                         targets="99"),
        ExperimentConfig(kind="tree", d=3, h=2, targets="3,99"),
    ],
    ids=["mcmc", "hom-exact", "tree"],
)
def test_target_range_checked_before_lambda_and_sampling(monkeypatch, cfg):
    def not_reached(*args, **kwargs):
        raise AssertionError("called before the targets were checked")

    monkeypatch.setattr(experiments.expansion, "spectral_lambda", not_reached)
    for name in ("mcmc_sample_array", "enumerate_functions", "tree_dp"):
        monkeypatch.setattr(experiments, name, not_reached)
    with pytest.raises(GraphError, match="target vertex 99 out of range"):
        run_experiment(cfg)


def test_max_kind():
    cfg = ExperimentConfig(
        kind="max", graph_type="regular", n=32, d=4, mode="lipschitz", M=1,
        sampler="mcmc", burnin=500, thin=5, n_samples=200, seed=1,
    )
    res = run_experiment(cfg)
    assert len(res.rows) == 4
    assert res.summary["loglog_n"] == math.log(math.log(32))
    # M log log n is a scale with no constant from the paper, not a bound
    assert all(r["bound"] is None for r in res.rows)
    lines = result_to_text(res, "csv").splitlines()
    col = lines[0].split(",").index("bound")
    assert [line.split(",")[col] for line in lines[1:]] == [""] * 4


def test_csv_prints_a_numpy_float_as_its_value():
    # isinstance(np.float64(0.25), float) holds, and repr reads np.float64(0.25)
    cfg = ExperimentConfig(kind="deviation", graph_type="complete_bipartite", m=2)
    row = experiments._row(cfg, 1, 0, np.float64(0.25), None, 0.1, 3, 10)
    line = result_to_text(experiments.ExperimentResult(cfg, [row]), "csv").splitlines()[1]
    assert line.split(",")[2:5] == ["0.25", "", "0.1"]


def test_max_kind_reads_narrow_rows_in_int64(monkeypatch):
    # row maxima -100, 100, 50, -120: np.percentile on them as int8
    # overflows and reads 103 at q = 50, against -25 in int64
    rows = np.repeat(np.array([[-100], [100], [50], [-120]], dtype=np.int8), 32, axis=1)
    cfg = ExperimentConfig(
        kind="max", graph_type="regular", n=32, d=4, mode="lipschitz", M=1,
        sampler="mcmc", burnin=0, thin=1, n_samples=4, seed=1,
    )
    res = {}
    for dtype in (np.int8, np.int64):
        sampled = rows.astype(dtype)
        monkeypatch.setattr(experiments, "mcmc_sample_array", lambda *a, **k: sampled)
        res[dtype] = run_experiment(cfg)
    assert res[np.int8].rows == res[np.int64].rows
    assert res[np.int8].summary == res[np.int64].summary
    assert res[np.int8].rows[0]["estimate"] == -25.0


@pytest.mark.filterwarnings("error")
def test_max_kind_reads_no_slope_in_hom_mode():
    # M is not read in hom mode: the ratio divides by the slope, 1
    base = dict(kind="max", graph_type="bipartite", n=8, d=3, mode="hom", sampler="mcmc",
                burnin=10, thin=1, n_samples=5, seed=1)
    want = run_experiment(ExperimentConfig(M=1, **base)).summary
    for M in (0, 3):
        assert run_experiment(ExperimentConfig(M=M, **base)).summary == want


@pytest.mark.parametrize(
    "graph, mode, sha1",
    [
        ("graph_type = regular\nn = 40\nd = 4\nM = 2\n", "lipschitz", "549675f3523fdc7b460c834a0db8c66174b03541"),
        ("graph_type = bipartite\nn = 20\nd = 3\n", "hom", "87096a8b99cb630d53ddca98ce543b98f620e2d2"),
    ],
    ids=["lip", "hom"],
)
def test_max_report_keeps_its_bytes(tmp_path, graph, mode, sha1):
    # sha1 of the csv, a NUL byte and the .config sidecar, recorded when the
    # sampled rows were held as int64
    cfg, out = tmp_path / "max.cfg", tmp_path / "max.csv"
    cfg.write_text(
        f"kind = max\n{graph}mode = {mode}\nsampler = mcmc\n"
        "burnin = 300\nthin = 3\nn_samples = 150\nseed = 4\n"
    )
    assert main(["experiment", str(cfg), "--out", str(out)]) == 0
    data = out.read_bytes() + b"\0" + (tmp_path / "max.csv.config").read_bytes()
    assert hashlib.sha1(data).hexdigest() == sha1


@pytest.mark.parametrize(
    "graph, mode, t_hi", [(k4, "lipschitz", 2), (c6, "lipschitz", 3), (q3, "hom", 3)],
    ids=["k4", "c6", "q3-hom"],
)
def test_default_t_range(tmp_path, graph, mode, t_hi):
    # without t_max, t runs from t_min to the diameter corollary's bound
    # where it applies, else to ecc(v0).  Lipschitz: ceil(log n /
    # log(d / 2 lambda)) when lambda < d/2 (K4: lambda = 3/4; C6: lambda =
    # 1 = d/2).  Hom: ceil(log(n/2) / log(d / 2 lambda) + 1) when lambda <=
    # d/8 (Q3: lambda = 3/4 > 3/8)
    g = graph()
    path = tmp_path / "g.txt"
    path.write_text(graph_to_text(g))
    cfg = ExperimentConfig(kind="deviation", graph_path=str(path), targets="all", mode=mode,
                           lambda_source="exhaustive")
    res = run_experiment(cfg)
    lam, d = res.summary["lambda"], g.degree
    if mode == "lipschitz" and lam < d / 2:
        expect = math.ceil(math.log(g.n) / math.log(d / (2 * lam)))
    elif mode == "hom" and lam <= d / 8:
        expect = math.ceil(math.log(g.n // 2) / math.log(d / (2 * lam)) + 1)
    else:
        expect = max(distances_from(g, cfg.v0))
    assert expect == t_hi
    for v in range(g.n):
        assert [r["t"] for r in res.rows if r["vertex"] == v] == list(range(1, t_hi + 1))


def test_emit_report_deterministic(tmp_path):
    cfg = hom_cfg()
    for fmt, name in (("csv", "a.csv"), ("jsonl", "a.jsonl")):
        p1 = tmp_path / ("x_" + name)
        p2 = tmp_path / ("y_" + name)
        emit_report(run_experiment(cfg), p1, fmt)
        emit_report(run_experiment(cfg), p2, fmt)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / ("x_" + name + ".config")).exists()


def test_report_column_order():
    text = result_to_text(run_experiment(hom_cfg()), "csv")
    header = text.splitlines()[0]
    assert header.startswith("vertex,t,estimate,exact,bound,ball_size,n_samples,seed,config_hash")


def loop_tails(g, rows, lam, cfg):
    """hits[(v, t)] by a plain loop: one reference phase per sample, then
    each target's deviation compared with each t's cut."""
    devs = []
    for row in rows:
        if cfg.mode == "lipschitz":
            lo, hi = reference_phase_lipschitz(g, row, lam, cfg.M)
        else:
            lo = hi = reference_phase_hom(g, row, lam, cfg.v0)[0]
        devs.append([max(lo - x, x - hi, 0) for x in row])
    hits = {}
    for v in range(g.n):
        for t in range(cfg.t_min, cfg.t_max + 1):
            cut = (t - 1) * cfg.M if cfg.mode == "lipschitz" else t
            hits[v, t] = sum(1 for dv in devs if dv[v] > cut)
    return hits


DEVIATION_CASES = [
    dict(sampler="exact", graph_type="regular", n=10, d=3, targets="all", lambda_source="exhaustive"),
    dict(sampler="exact", graph_type="regular", n=8, d=3, M=2, targets="0,3,7", lambda_source="exhaustive"),
    dict(sampler="exact", graph_type="bipartite", n=5, d=3, mode="hom", targets="all", lambda_source="exhaustive"),
    dict(sampler="mcmc", graph_type="regular", n=16, d=3, targets="2,1,2,9", n_samples=300),
    dict(sampler="mcmc", graph_type="bipartite", n=8, d=3, mode="hom", targets="all", n_samples=300),
]


@pytest.mark.parametrize("block_values", [None, 40])
@pytest.mark.parametrize("case", DEVIATION_CASES)
def test_deviation_tails_match_per_sample_loop(case, block_values, monkeypatch):
    if block_values is not None:  # several blocks per run
        monkeypatch.setattr(experiments, "BLOCK_VALUES", block_values)
    cfg = ExperimentConfig(
        kind="deviation", t_min=0, t_max=4, burnin=200, thin=3, seed=4, **case
    )
    res = run_experiment(cfg)
    g = experiments._build_graph_from_config(cfg)
    M = cfg.M if cfg.mode == "lipschitz" else None
    if cfg.sampler == "exact":
        rows = enumerate_functions(g, cfg.v0, cfg.mode, M=M).rows
    else:
        rows = mcmc_sample_array(
            g, cfg.v0, cfg.mode, M=M, burnin=cfg.burnin, thin=cfg.thin,
            n_samples=cfg.n_samples, seed=cfg.seed,
        )
    hits = loop_tails(g, rows.tolist(), res.summary["lambda"], cfg)
    targets = sorted(set(experiments._target_vertices(g.n, cfg)))
    assert [(r["vertex"], r["t"]) for r in res.rows] == [
        (v, t) for v in targets for t in range(cfg.t_min, cfg.t_max + 1)
    ]
    n_s = len(rows)
    for r in res.rows:
        want = hits[r["vertex"], r["t"]]
        assert r["n_samples"] == n_s
        assert r["estimate"] == want / n_s and type(r["estimate"]) is float
        if cfg.sampler == "exact":
            q = Fraction(want, n_s)
            assert r["exact"] == f"{q.numerator}/{q.denominator}"
        else:
            assert r["exact"] is None
    assert any(0 < h < n_s for h in hits.values())  # a tail strictly inside (0, 1)


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"graph_type": "regular", "d": 3}, "n"),
        ({"graph_type": "regular", "n": 8}, "d"),
        ({"graph_type": "bipartite", "d": 3}, "n"),
        ({"graph_type": "bipartite", "n": 8}, "d"),
        ({"graph_type": "tree", "h": 2}, "d"),
        ({"graph_type": "tree", "d": 3}, "h"),
        ({"kind": "tree", "h": 2}, "d"),
        ({"kind": "tree", "d": 3}, "h"),
        ({"graph_type": "complete_bipartite"}, "m"),
    ],
)
def test_config_rejects_missing_graph_field(fields, key, tmp_path, capsys):
    assert_rejected_at_entry({"kind": "deviation", **fields}, f"needs {key}", tmp_path, capsys)


def assert_rejected_at_entry(kwargs, message, tmp_path, capsys):
    """The config raises ValueError ending in message, and `liphom
    experiment` on it exits 2 with that one stderr line and no report."""
    with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
        ExperimentConfig(**kwargs)
    path = tmp_path / "e.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in kwargs.items()))
    assert main(["experiment", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith(f"{message}\n")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"t_min": 2, "t_max": 1}, "t_max = 1 is below t_min = 2"),
        ({"t_min": -1}, "t_min = -1 must be at least 0"),
        ({"M": 0}, "M = 0 must be at least 1"),
        ({"sampler": "mcmc", "burnin": -1}, "burnin = -1 must be at least 0"),
        ({"sampler": "mcmc", "thin": 0}, "thin = 0 must be at least 1"),
        ({"sampler": "mcmc", "n_samples": 0}, "n_samples = 0 must be at least 1"),
        ({"kind": "max", "sampler": "mcmc", "thin": -2}, "thin = -2 must be at least 1"),
        ({"kind": "max"}, "kind = max needs sampler = mcmc"),
        ({"cap": 0}, "cap = 0 must be at least 1"),
        *(
            ({"lambda_source": "explicit", "lambda_value": lam}, f"{lam} must be finite and at least 0")
            for lam in (float("inf"), float("-inf"), float("nan"), -0.5)
        ),
        ({"kind": "hom-exact"}, "kind = hom-exact needs mode = hom"),
        ({"kind": "hom-exact", "mode": "hom", "sampler": "mcmc"}, "kind = hom-exact needs sampler = exact"),
        ({"seed": -2}, "seed = -2 must be at least 0"),
        ({"sampler": "mcmc", "seed": -2}, "seed = -2 must be at least 0"),
        ({"kind": "tree", "graph_type": "tree", "d": 3, "h": 2, "seed": -2}, "seed = -2 must be at least 0"),
    ],
)
def test_config_rejects_out_of_range(fields, message, tmp_path, capsys):
    kwargs = {"kind": "deviation", "graph_type": "complete_bipartite", "m": 2, **fields}
    assert_rejected_at_entry(kwargs, message, tmp_path, capsys)


def test_config_range_checks_follow_mode_and_sampler():
    # M is read only in Lipschitz mode, the chain settings only by MCMC runs,
    # and t = 0 is a legal first row
    base = {"kind": "deviation", "graph_type": "complete_bipartite", "m": 2}
    ExperimentConfig(**base, mode="hom", M=0)
    ExperimentConfig(**base, burnin=-1, thin=0, n_samples=0)
    ExperimentConfig(**base, t_min=0, t_max=0)
