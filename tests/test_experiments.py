import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from liphom import (
    ExperimentConfig,
    GraphError,
    emit_report,
    enumerate_functions,
    experiments,
    homomorphism,
    lipschitz,
    mcmc_sample_array,
    parse_config,
    run_experiment,
    tree_dp,
)
from liphom.cli import main
from liphom.graphs import tree_level_offsets
from liphom.experiments import HYPOTHESES_NOT_MET, result_to_text

from .conftest import reference_phase_hom, reference_phase_lipschitz


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


def test_tree_kind_past_int_str_digit_limit(tmp_path):
    # at h=13 the exact tails have more digits than str(int) accepts
    d, h = 3, 13
    starts = tree_level_offsets(d, h)[:-1]
    cfg = tmp_path / "tree.cfg"
    cfg.write_text(
        f"kind = tree\nd = {d}\nh = {h}\nM = 1\nt_max = 2\n"
        f"targets = {','.join(map(str, starts))}\n"
    )
    out = tmp_path / "tree.csv"
    assert main(["experiment", str(cfg), "--out", str(out)]) == 0
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


def test_tree_kind_rejects_out_of_range_target():
    for v in (-1, 10):
        cfg = ExperimentConfig(kind="tree", d=3, h=2, M=1, targets=str(v), t_max=1)
        with pytest.raises(GraphError):
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
            ph = reference_phase_lipschitz(g, lipschitz(row, cfg.v0, cfg.M), lam)
        else:
            ph = reference_phase_hom(g, homomorphism(row, cfg.v0), lam)
        devs.append([ph.dist(x) for x in row])
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
    kwargs = {"kind": "deviation", **fields}
    with pytest.raises(ValueError, match=f"needs {key}$"):
        ExperimentConfig(**kwargs)
    path = tmp_path / "e.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in kwargs.items()))
    assert main(["experiment", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith(f"needs {key}\n")
    assert not (tmp_path / "r.csv").exists()
