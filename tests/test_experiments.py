import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from liphom import ExperimentConfig, GraphError, emit_report, parse_config, run_experiment, tree_dp
from liphom.cli import main
from liphom.graphs import tree_level_offsets
from liphom.experiments import HYPOTHESES_NOT_MET, result_to_text


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
    "key, value", [("sampler", "exakt"), ("lambda_source", "exhaustiv"), ("mode", "homm")]
)
def test_config_rejects_unknown_choice(key, value):
    with pytest.raises(ValueError, match=f"{key} = '{value}'"):
        ExperimentConfig(kind="deviation", **{key: value})
    with pytest.raises(ValueError, match=f"{key} = '{value}'"):
        parse_config(f"kind = deviation\n{key} = {value}\n")


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
