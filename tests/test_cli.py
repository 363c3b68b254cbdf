import json

import pytest

from liphom import graph_to_text, read_graph
from liphom.cli import main

from .conftest import k33, k4


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.txt"
    p.write_text(graph_to_text(k4()))
    return str(p)


@pytest.fixture
def k33_file(tmp_path):
    p = tmp_path / "k33.txt"
    p.write_text(graph_to_text(k33()))
    return str(p)


def test_gen_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["gen", "--type", "regular", "--n", "12", "--d", "3",
                     "--seed", "7", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    g = read_graph(str(a))
    assert g.degree == 3 and g.n == 12
    assert "seed=7" in a.read_text().splitlines()[0]


def test_gen_tree(tmp_path):
    out = tmp_path / "t.txt"
    assert main(["gen", "--type", "tree", "--d", "3", "--h", "2", "--out", str(out)]) == 0
    assert read_graph(str(out)).n == 10


def test_gen_glued_tree_rejected(tmp_path, capsys):
    out = tmp_path / "gt.txt"
    assert main(["gen", "--type", "glued-tree", "--d", "3", "--h", "2", "--out", str(out)]) != 0
    assert not out.exists()
    assert "parallel edges" in capsys.readouterr().err


def test_certify(k4_file, tmp_path, capsys):
    assert main(["certify", k4_file, "--M", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 3
    assert payload["lambda_exhaustive"] <= payload["lambda_spectral"] + 1e-9
    assert payload["predicates"]["M-good(1)"] is False


def test_enumerate(k4_file, tmp_path):
    out = tmp_path / "en.txt"
    assert main(["enumerate", k4_file, "--mode", "lipschitz", "--M", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "count=15" in lines[0]
    assert len(lines) == 16


def test_sample_mcmc_deterministic(k4_file, tmp_path):
    outs = []
    for name in ("s1.txt", "s2.txt"):
        out = tmp_path / name
        assert main(["sample", "--sampler", "mcmc", "--graph", k4_file,
                     "--mode", "lipschitz", "--M", "1", "--burnin", "100",
                     "--thin", "5", "--n-samples", "20", "--seed", "3",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert b"seed=3" in outs[0].splitlines()[0]


def test_sample_tree(tmp_path):
    out = tmp_path / "ts.txt"
    assert main(["sample", "--sampler", "tree", "--d", "3", "--h", "2",
                 "--n-samples", "5", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    for line in lines[1:]:
        vals = [int(x) for x in line.split()]
        assert len(vals) == 10
        assert vals[-6:] == [0] * 6  # leaves grounded


def test_phase(k33_file, tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("\n".join("000111") + "\n")
    assert main(["phase", k33_file, str(f), "--mode", "hom",
                 "--lam-source", "exhaustive", "--vertices", "0,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 0 and payload["i_star"] == 0
    assert payload["deviation"]["0"] == 0
    assert payload["deviation"]["3"] == 1


def test_verify_transform(k4_file, capsys):
    assert main(["verify-transform", k4_file, "--mode", "lipschitz",
                 "--M", "1", "--v", "2", "--t", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True


def test_experiment_reproducible(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "kind = hom-exact\ngraph_type = complete_bipartite\nm = 2\n"
        "mode = hom\ntargets = all\nt_max = 2\nlambda_source = exhaustive\nseed = 5\n"
    )
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(["experiment", str(cfg), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
        assert (tmp_path / (name + ".config")).exists()
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, seed", [([], "5"), (["--seed", "0"], "0"), (["--seed", "3"], "3")])
def test_experiment_seed_override(tmp_path, argv, seed):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "kind = hom-exact\ngraph_type = complete_bipartite\nm = 2\n"
        "mode = hom\ntargets = all\nt_max = 2\nlambda_source = exhaustive\nseed = 5\n"
    )
    out = tmp_path / "r.csv"
    assert main(["experiment", str(cfg), "--out", str(out), *argv]) == 0
    rows = out.read_text().splitlines()
    col = rows[0].split(",").index("seed")
    assert {r.split(",")[col] for r in rows[1:]} == {seed}
    assert f"seed = {seed}\n" in (tmp_path / "r.csv.config").read_text()


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["gen", "--type", "regular", "--d", "3"], "--n"),
        (["gen", "--type", "bipartite", "--n", "4"], "--d"),
        (["gen", "--type", "tree", "--d", "3"], "--h"),
        (["gen", "--type", "glued-tree", "--d", "3", "--h", "2"], "parallel edges"),
        (["sample", "--sampler", "mcmc"], "--graph"),
        (["sample", "--sampler", "tree", "--h", "2"], "--d"),
        (["enumerate", "{missing}", "--mode", "lipschitz"], "No such file"),
        (["enumerate", "{k4}", "--mode", "lipschitz", "--cap", "3"], "cap 3"),
        (["experiment", "{bad_cfg}"], "sampler = 'exakt'"),
        (["certify", "{k4}", "--workers", "2"], "--workers"),
        (["certify", "{k4}", "--format", "jsonl"], "--format"),
        (["sample", "--sampler", "mcmc", "--graph", "{k4}", "--v0", "9"], "vertex 9 out of range"),
        (["experiment", "{v0_cfg}"], "vertex 99 out of range"),
        (["enumerate", "{k4}", "--mode", "lipschitz", "--v0", "9"], "vertex 9 out of range"),
        (["verify-transform", "{k4}", "--mode", "lipschitz", "--v", "9"], "vertex 9 out of range"),
        (["verify-transform", "{k4}", "--mode", "lipschitz", "--v", "1", "--v0", "7"], "vertex 7 out of range"),
        (["phase", "{k4}", "{flat}", "--mode", "lipschitz", "--vertices", "1,9"], "vertex 9 out of range"),
        (["phase", "{k4}", "{short}", "--mode", "lipschitz"], "length 2, graph has 4"),
        (["phase", "{k4}", "{steep}", "--mode", "lipschitz", "--M", "1"], "|0 - 3| > M=1"),
        (["sample", "--sampler", "tree", "--d", "3", "--h", "2", "--n-samples", "-1"], "--n-samples"),
        (["experiment", "{lam_unread}"], "lambda_value = 0.25"),
        (["experiment", "{lam_missing}"], "needs lambda_value"),
    ],
)
def test_rejected_input_exits_2(k4_file, tmp_path, capsys, argv, expect):
    files = {
        "bad_cfg": "kind = deviation\ngraph_type = complete_bipartite\nsampler = exakt\n",
        "v0_cfg": f"kind = deviation\ngraph_path = {k4_file}\nv0 = 99\ntargets = 1,2\n"
        "t_max = 2\nsampler = mcmc\nburnin = 10\nthin = 1\nn_samples = 5\n",
        "flat": "0\n0\n0\n0\n",
        "short": "0\n1\n",
        "steep": "0\n3\n0\n0\n",
        "lam_unread": f"kind = deviation\ngraph_path = {k4_file}\nlambda_value = 0.25\n",
        "lam_missing": f"kind = deviation\ngraph_path = {k4_file}\nlambda_source = explicit\n",
    }
    paths = {"{k4}": k4_file, "{missing}": str(tmp_path / "missing.txt")}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths["{" + name + "}"] = str(tmp_path / name)
    try:
        rc = main([paths.get(a, a) for a in argv])
    except SystemExit as exc:  # argparse rejects at entry
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert expect in err
    assert "Traceback" not in err
    if not err.startswith("usage:"):  # argparse prints its usage line first
        assert err.count("\n") == 1
