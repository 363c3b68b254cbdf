import hashlib
import json

import numpy as np
import pytest

from liphom import build_graph, experiments, graph_to_text, read_graph, transform
from liphom.cli import main

from .conftest import k33, k4, q3


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


@pytest.mark.parametrize(
    "gen, mode, M, sha1",
    [
        ("regular --n 24", "lipschitz", "1", "5afcb144506d4f2d772f1ea9f9adca3d54b84cd5"),
        ("regular --n 24", "lipschitz", "2", "9cb53bf15a51ac408bfd709d5176b42135efe4e1"),
        ("bipartite --n 12", "hom", None, "a4aa298486e0ac00a5acfd5ea361e1404a8cb04c"),
    ],
    ids=["lip-M1", "lip-M2", "hom"],
)
def test_sample_mcmc_keeps_its_bytes(tmp_path, gen, mode, M, sha1):
    # sha1s of the sample file, recorded when the rows were held as int64
    # (the hom case then passed --M 1, which hom mode does not read)
    graph, out = tmp_path / "g.txt", tmp_path / "s.txt"
    assert main(["gen", "--type", *gen.split(), "--d", "3", "--seed", "5", "--out", str(graph)]) == 0
    slope = ["--M", M] if M else []
    assert main(["sample", "--sampler", "mcmc", "--graph", str(graph), "--mode", mode,
                 *slope, "--burnin", "50", "--thin", "7", "--n-samples", "40",
                 "--seed", "2", "--out", str(out)]) == 0
    assert hashlib.sha1(out.read_bytes()).hexdigest() == sha1


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


def petersen():
    spokes = [(i, i + 5) for i in range(5)]
    rims = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, rims + spokes)


LIP_ROW = (0, 1, 1, 0, 0, 1, 2, 1, 1, 1)  # 1-Lipschitz on the Petersen graph
HOM_ROW = (0, 1, 1, 2, 1, 2, 0, 1)  # a homomorphism on Q3, even on 0's class


@pytest.mark.parametrize(
    "graph, mode, values, lam, sha1",
    [
        (petersen, "lipschitz", LIP_ROW, None, "89fcbafcd2cee4ba7306e58e2a2250bab2460205"),
        (petersen, "lipschitz", LIP_ROW, "0.5", "a5961f098a370a8a2206d38657af159e94c1d8f8"),
        (petersen, "lipschitz", [-x for x in LIP_ROW], None, "ed72b3d2be1586865733ad3e4276136d44a3fc35"),
        (petersen, "lipschitz", [-x for x in LIP_ROW], "0.5", "f631712000d30120eb8d21bb033bcd8b6b23ac85"),
        (q3, "hom", HOM_ROW, None, "50f5f9dc77df891709c4580b1c458dc8ab23328a"),
        (q3, "hom", HOM_ROW, "0.5", "cb16cd1fa0a029325c5b2750feaffd3e4eab0798"),
        (q3, "hom", [-x for x in HOM_ROW], None, "50f5f9dc77df891709c4580b1c458dc8ab23328a"),
        (q3, "hom", [-x for x in HOM_ROW], "0.5", "6d1c3e9780beef421a549dc95cd2b00260bad4d4"),
    ],
    ids=["lip", "lip-lam", "lip-neg", "lip-neg-lam", "hom", "hom-lam", "hom-neg", "hom-neg-lam"],
)
def test_phase_keeps_its_bytes(tmp_path, capsys, graph, mode, values, lam, sha1):
    # sha1s of the JSON line (phase, lambda and every vertex's deviation),
    # recorded with the earlier function-record implementation of phase
    g = graph()
    (tmp_path / "g.txt").write_text(graph_to_text(g))
    (tmp_path / "f.txt").write_text("".join(f"{x}\n" for x in values))
    lam_args = ["--lam-source", "exhaustive"] if lam is None else ["--lam", lam]
    vertices = ",".join(map(str, range(g.n)))
    argv = ["phase", str(tmp_path / "g.txt"), str(tmp_path / "f.txt"), "--mode", mode, *lam_args]
    assert main(argv + ["--vertices", vertices]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


def test_verify_transform(k4_file, capsys):
    assert main(["verify-transform", k4_file, "--mode", "lipschitz",
                 "--M", "1", "--v", "2", "--t", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True


def test_verify_transform_exits_1_on_a_failed_check(k4_file, capsys, monkeypatch):
    # every image gains the member (0, 5, 0, 0), whose edge (0,1) has gap 5 > M
    real = transform.image_rows

    def with_bad(ctxs, idx, root):
        members, owner = real(ctxs, idx, root)
        extra = np.tile((0, 5, 0, 0), (len(idx), 1))
        return np.vstack([members, extra]), np.concatenate([owner, np.arange(len(idx))])

    monkeypatch.setattr(transform, "image_rows", with_bad)
    assert main(["verify-transform", k4_file, "--mode", "lipschitz",
                 "--M", "1", "--v", "2", "--t", "1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    check = payload["checks"]["image_members_valid"]
    assert payload["all_passed"] is False and check["passed"] is False
    assert "(0, 5, 0, 0)" in check["witness"] and "edge (0,1)" in check["witness"]


def test_verify_transform_zero_strategy_reads_no_lambda(k4_file, capsys):
    # the default --lam-source is accepted; no lambda is computed or echoed
    assert main(["verify-transform", k4_file, "--mode", "lipschitz", "--v", "2",
                 "--k-strategy", "zero"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True and payload["lambda"] is None


def test_experiment_reproducible(tmp_path, capsys):
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
    # without --out the report goes to stdout
    assert capsys.readouterr().out == ""
    assert main(["experiment", str(cfg)]) == 0
    assert capsys.readouterr().out.encode() == outs[0]


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
        (["gen", "--type", "bipartite", "--n", "0", "--d", "0"], "class size n=0 must be at least 1"),
        (["gen", "--type", "bipartite", "--n", "-3", "--d", "2"], "class size n=-3 must be at least 1"),
        (["gen", "--type", "bipartite", "--n", "4", "--d", "0"], "degree d=0 must be at least 1"),
        (["gen", "--type", "regular", "--n", "4", "--d", "0"], "degree d=0 must be at least 1"),
        (["gen", "--type", "regular", "--n", "4", "--d", "1"], "d=1 with n=4 > 2"),
        (["gen", "--type", "regular", "--n", "0", "--d", "3"], "vertex count n=0 must be at least 1"),
        (["certify", "{k4}", "--tol", "1e-6"], "--tol"),
        (["phase", "{k4}", "{flat}", "--mode", "lipschitz", "--lam=inf"], "explicit lambda = inf must be finite"),
        (["phase", "{k4}", "{flat}", "--mode", "lipschitz", "--lam=-inf"], "explicit lambda = -inf must be finite"),
        (["phase", "{k4}", "{flat}", "--mode", "lipschitz", "--lam=nan"], "explicit lambda = nan must be finite"),
        (["verify-transform", "{k4}", "--mode", "lipschitz", "--v", "1", "--lam=-0.5"], "= -0.5 must be"),
        (["verify-transform", "{k4}", "--mode", "lipschitz", "--v", "1", "--lam=nan", "--k-strategy", "zero"],
         "--lam is read only with --k-strategy phase, not zero"),
        (["verify-transform", "{k4}", "--mode", "lipschitz", "--v", "1", "--lam=0.5", "--k-strategy", "zero"],
         "--lam is read only with --k-strategy phase, not zero"),
        (["experiment", "{bad_targets}"], "config targets = '1,x'"),
        (["phase", "{k4}", "{flat}", "--mode", "lipschitz", "--M", "0"], "lipschitz mode needs a positive slope M"),
        # an edgeless graph records no uniform degree
        (["certify", "{edgeless}"], "requires a regular graph with at least one edge"),
        (["phase", "{edgeless}", "{flat3}", "--mode", "lipschitz"], "requires a regular graph with at least one edge"),
        (["verify-transform", "{one_vertex}", "--mode", "lipschitz", "--v", "0"],
         "requires a regular graph with at least one edge"),
        # a flag that the chosen --type / --sampler does not read
        (["sample", "--sampler", "tree", "--graph", "{missing}", "--d", "3", "--h", "2", "--burnin", "5"],
         "sample --sampler tree does not read --graph"),
        (["sample", "--sampler", "mcmc", "--graph", "{k4}", "--d", "3"], "sample --sampler mcmc does not read --d"),
        (["gen", "--type", "tree", "--d", "3", "--h", "2", "--n", "99"], "gen --type tree does not read --n"),
        (["gen", "--type", "regular", "--n", "8", "--d", "3", "--h", "2"], "gen --type regular does not read --h"),
        (["sample", "--sampler", "tree", "--d", "3", "--h", "2", "--burnin", "5"],
         "sample --sampler tree does not read --burnin"),
        (["sample", "--sampler", "tree", "--d", "3", "--h", "2", "--thin", "9"],
         "sample --sampler tree does not read --thin"),
        (["sample", "--sampler", "tree", "--d", "3", "--h", "2", "--v0", "4"],
         "sample --sampler tree does not read --v0"),
        # --M is read only in lipschitz mode
        (["enumerate", "{k33}", "--mode", "hom", "--M", "1"], "enumerate --mode hom does not read --M"),
        (["sample", "--sampler", "mcmc", "--graph", "{k33}", "--mode", "hom", "--M", "5"],
         "sample --mode hom does not read --M"),
        (["sample", "--sampler", "tree", "--d", "3", "--h", "2", "--mode", "hom", "--M", "1"],
         "sample --mode hom does not read --M"),
        (["phase", "{k33}", "{flat6}", "--mode", "hom", "--M", "2"], "phase --mode hom does not read --M"),
        (["verify-transform", "{k33}", "--mode", "hom", "--v", "1", "--M", "1"],
         "verify-transform --mode hom does not read --M"),
        # a negative seed, before any graph is built
        (["gen", "--type", "regular", "--n", "8", "--d", "3", "--seed", "-1"], "--seed -1 must be at least 0"),
        (["sample", "--sampler", "mcmc", "--graph", "{k4}", "--seed", "-3"], "--seed -3 must be at least 0"),
        (["sample", "--sampler", "tree", "--d", "3", "--h", "2", "--seed", "-3"], "--seed -3 must be at least 0"),
        (["experiment", "{bad_cfg}", "--seed", "-1"], "--seed -1 must be at least 0"),
        (["experiment", "{seed_cfg}"], "config seed = -2 must be at least 0"),
        (["experiment", "{tree_seed_cfg}"], "config seed = -2 must be at least 0"),
        (["certify", "{neg_n}"], "bad header line: '-1 0'"),
        (["certify", "{bad_id}"], "bad edge line: '0 x'"),
        (["certify", "{bad_m}"], "bad header line: '3 x'"),
        (["certify", "{late_bipartite}"], "bad edge line: 'bipartite 2'"),
        (["certify", "{underscore_id}"], "bad edge line: '0 1_0'"),
        (["certify", "{arabic_id}"], "bad edge line: '0 ٣'"),
        (["certify", "{huge_id}"], "edge (0,99999999999999999999) out of range for n=3"),
        # one --n-samples rule for both samplers, before the graph is read
        (["sample", "--sampler", "mcmc", "--graph", "{missing}", "--n-samples", "0"], "--n-samples must be at least 1"),
        (["sample", "--sampler", "tree", "--d", "3", "--h", "2", "--n-samples", "0"], "--n-samples must be at least 1"),
        # phase reads its function file and --vertices by the graph format's integer grammar
        (["phase", "{k4}", "{word_fn}", "--mode", "lipschitz"], "word_fn: line 3 is not an integer: 'x'"),
        (["phase", "{k4}", "{underscore_fn}", "--mode", "lipschitz"],
         "underscore_fn: line 2 is not an integer: '0_0'"),
        (["phase", "{k4}", "{flat}", "--mode", "lipschitz", "--vertices", "1,,2"],
         "--vertices '1,,2': '' is not a vertex id"),
        (["phase", "{k4}", "{flat}", "--mode", "lipschitz", "--vertices", "0_1"],
         "--vertices '0_1': '0_1' is not a vertex id"),
        # config ints and targets by the same grammar
        (["experiment", "{underscore_cfg}"], "config M = '1_0' does not read as int"),
        (["experiment", "{arabic_cfg}"], "config seed = '\u0663' does not read as int"),
        (["experiment", "{underscore_targets_cfg}"], "config targets = '1_0,2'"),
    ],
)
def test_rejected_input_exits_2(k4_file, k33_file, tmp_path, capsys, argv, expect):
    files = {
        "bad_cfg": "kind = deviation\ngraph_type = complete_bipartite\nsampler = exakt\n",
        "v0_cfg": f"kind = deviation\ngraph_path = {k4_file}\nv0 = 99\ntargets = 1,2\n"
        "t_max = 2\nsampler = mcmc\nburnin = 10\nthin = 1\nn_samples = 5\n",
        "flat": "0\n0\n0\n0\n",
        "short": "0\n1\n",
        "steep": "0\n3\n0\n0\n",
        "lam_unread": f"kind = deviation\ngraph_path = {k4_file}\nlambda_value = 0.25\n",
        "lam_missing": f"kind = deviation\ngraph_path = {k4_file}\nlambda_source = explicit\n",
        "bad_targets": f"kind = deviation\ngraph_path = {k4_file}\ntargets = 1,x\n",
        "edgeless": "3 0\n",
        "flat3": "0\n0\n0\n",
        "one_vertex": "1 0\n",
        "flat6": "0\n0\n0\n1\n1\n1\n",
        "seed_cfg": f"kind = deviation\ngraph_path = {k4_file}\nsampler = mcmc\nseed = -2\n",
        "tree_seed_cfg": "kind = tree\ngraph_type = tree\nd = 3\nh = 2\nseed = -2\n",
        "neg_n": "-1 0\n",
        "bad_id": "3 1\n0 x\n",
        "bad_m": "3 x\n0 1\n",
        "late_bipartite": "4 1\n0 1\nbipartite 2\n",
        "underscore_id": "20 1\n0 1_0\n",
        "arabic_id": "4 1\n0 \u0663\n",
        "huge_id": "3 1\n0 99999999999999999999\n",
        "word_fn": "0\n# a comment\nx\n0\n0\n",
        "underscore_fn": "0\n0_0\n0\n0\n",
        "underscore_cfg": f"kind = deviation\ngraph_path = {k4_file}\nM = 1_0\n",
        "arabic_cfg": f"kind = deviation\ngraph_path = {k4_file}\nseed = \u0663\n",
        "underscore_targets_cfg": f"kind = deviation\ngraph_path = {k4_file}\ntargets = 1_0,2\n",
    }
    paths = {"{k4}": k4_file, "{k33}": k33_file, "{missing}": str(tmp_path / "missing.txt")}
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


@pytest.mark.parametrize(
    "text, expect",
    [
        ("kind = deviation\ngraph_type = tree\nd = 3\nh = 2\nsampler = mcmc\n",
         "config kind = deviation needs a regular graph; graph_type = tree"),
        ("kind = deviation\ngraph_path = {path}\n",
         "config kind = deviation needs a regular graph; graph_type = file"),
        ("kind = hom-exact\ngraph_type = tree\nd = 3\nh = 2\nmode = hom\n",
         "config kind = hom-exact needs a regular graph; graph_type = tree"),
        ("kind = deviation\ngraph_type = complete_bipartite\nm = 0\n",
         "config m = 0 must be at least 1"),
        # log log n is negative at n = 2
        ("kind = max\ngraph_type = complete_bipartite\nm = 1\nmode = hom\nsampler = mcmc\n",
         "config kind = max needs at least 3 vertices; graph_type = complete_bipartite gave 2"),
    ],
    ids=["tree", "path-file", "hom-exact-tree", "kmm-m0", "max-k11"],
)
def test_experiment_rejects_graph_before_sampling(tmp_path, capsys, monkeypatch, text, expect):
    # the explicit lambda source reached expansion.goodness(None, ...) and
    # a TypeError on a graph with no uniform degree
    def not_reached(*args, **kwargs):
        raise AssertionError("sampling started on a rejected graph")

    for name in ("mcmc_sample_array", "enumerate_functions"):
        monkeypatch.setattr(experiments, name, not_reached)
    path = tmp_path / "path.txt"
    path.write_text(graph_to_text(build_graph(3, [(0, 1), (1, 2)])))
    cfg = tmp_path / "x.cfg"
    cfg.write_text(text.format(path=path) + "lambda_source = explicit\nlambda_value = 0.5\n")
    assert main(["experiment", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert expect in err
    assert "Traceback" not in err
    assert err.count("\n") == 1
