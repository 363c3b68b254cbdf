"""Command-line interface.

Subcommands: gen, certify, enumerate, sample, phase, verify-transform,
experiment.  All output is deterministic for a fixed seed; seeds and
parameters are echoed into output headers.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import expansion, transform
from .experiments import emit_report, parse_config, result_to_text, run_experiment
from .graphs import (
    gen_random_bipartite_regular,
    gen_random_regular,
    gen_tree,
    graph_to_text,
    read_graph,
)
from .heights import homomorphism, lipschitz, phase_hom, phase_lipschitz
from .samplers import enumerate_functions, mcmc_sample_array
from .treedp import tree_dp, tree_sample

__all__ = ["main", "build_parser"]


def _write_out(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sub.add_argument("--cap", type=int, default=10_000_000)
    sub.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="liphom",
        description="Height functions on expanders: generation, certification, "
        "exact counting, sampling and verification.",
    )
    sp = p.add_subparsers(dest="command", required=True)

    g = sp.add_parser("gen", help="generate a graph and write it as text")
    g.add_argument("--type", required=True, choices=("regular", "bipartite", "tree", "glued-tree"))
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--h", type=int)
    _common(g)

    c = sp.add_parser("certify", help="expansion certificate for a graph file")
    c.add_argument("graph")
    c.add_argument("--M", type=int, default=None)
    c.add_argument("--tol", type=float, default=1e-9)
    _common(c)

    e = sp.add_parser("enumerate", help="enumerate a height-function family")
    e.add_argument("graph")
    e.add_argument("--mode", required=True, choices=("lipschitz", "hom"))
    e.add_argument("--M", type=int, default=1)
    e.add_argument("--v0", type=int, default=0)
    _common(e)

    s = sp.add_parser("sample", help="draw samples (Glauber MCMC or exact tree)")
    s.add_argument("--sampler", required=True, choices=("mcmc", "tree"))
    s.add_argument("--graph")
    s.add_argument("--mode", default="lipschitz", choices=("lipschitz", "hom"))
    s.add_argument("--M", type=int, default=1)
    s.add_argument("--v0", type=int, default=0)
    s.add_argument("--burnin", type=int, default=10_000)
    s.add_argument("--thin", type=int, default=10)
    s.add_argument("--n-samples", type=int, default=100)
    s.add_argument("--d", type=int)
    s.add_argument("--h", type=int)
    _common(s)

    ph = sp.add_parser("phase", help="phase of a height function")
    ph.add_argument("graph")
    ph.add_argument("function", help="file with one integer per vertex per line")
    ph.add_argument("--mode", required=True, choices=("lipschitz", "hom"))
    ph.add_argument("--M", type=int, default=1)
    ph.add_argument("--v0", type=int, default=0)
    ph.add_argument("--lam", type=float, default=None, help="explicit lambda")
    ph.add_argument(
        "--lam-source", choices=("spectral", "exhaustive"), default="spectral"
    )
    ph.add_argument("--vertices", default="", help="comma list for deviation output")
    _common(ph)

    vt = sp.add_parser("verify-transform", help="verify the flattening-map counting machinery")
    vt.add_argument("graph")
    vt.add_argument("--mode", required=True, choices=("lipschitz", "hom"))
    vt.add_argument("--M", type=int, default=1)
    vt.add_argument("--v0", type=int, default=0)
    vt.add_argument("--v", type=int, required=True)
    vt.add_argument("--t", type=int, default=1)
    vt.add_argument("--lam", type=float, default=None)
    vt.add_argument(
        "--lam-source", choices=("spectral", "exhaustive"), default="exhaustive"
    )
    vt.add_argument("--k-strategy", choices=("phase", "zero"), default="phase")
    _common(vt)

    ex = sp.add_parser("experiment", help="run a config-driven experiment")
    ex.add_argument("config")
    _common(ex)
    ex.set_defaults(seed=None)  # without --seed the config's seed stands

    return p


def _lam(g, args) -> float:
    source = "explicit" if args.lam is not None else args.lam_source
    return expansion.resolve_lambda(g, args.mode, source, args.lam)


def _cmd_gen(args) -> int:
    if args.type == "glued-tree":
        # the glue vertex keeps parallel edges, which read_graph rejects
        sys.stderr.write(
            "liphom gen: --type glued-tree has parallel edges, which the graph "
            "text format cannot hold; build it with gen_tree(d, h, glued=True)\n"
        )
        return 2
    if args.type == "regular":
        g = gen_random_regular(args.n, args.d, args.seed)
    elif args.type == "bipartite":
        g = gen_random_bipartite_regular(args.n, args.d, args.seed)
    else:
        g = gen_tree(args.d, args.h)
    header = f"# gen type={args.type} n={args.n} d={args.d} h={args.h} seed={args.seed}\n"
    _write_out(args, header + graph_to_text(g))
    return 0


def _cmd_certify(args) -> int:
    g = read_graph(args.graph)
    rep = expansion.certify(g, args.M, tol=args.tol)
    payload = {
        "lambda_spectral": rep.lambda_spectral,
        "lambda_exhaustive": rep.lambda_exhaustive,
        "d": rep.d,
        "n": rep.n,
        "mode": rep.mode,
        "predicates": rep.predicates,
        "seed": args.seed,
    }
    _write_out(args, json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_enumerate(args) -> int:
    g = read_graph(args.graph)
    M = args.M if args.mode == "lipschitz" else None
    res = enumerate_functions(g, args.v0, args.mode, M=M, cap=args.cap)
    lines = [
        f"# enumerate mode={args.mode} M={M} v0={args.v0} seed={args.seed} count={res.count}"
    ]
    for f in sorted(res.functions, key=lambda f: f.values):
        lines.append(" ".join(str(x) for x in f.values))
    _write_out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_sample(args) -> int:
    if args.sampler == "tree":
        dp = tree_dp(args.d, args.h, mode=args.mode, M=args.M if args.mode == "lipschitz" else None)
        lines = [
            f"# sample sampler=tree d={args.d} h={args.h} mode={args.mode} "
            f"M={dp.M} n_samples={args.n_samples} seed={args.seed}"
        ]
        for i in range(args.n_samples):
            f = tree_sample(dp, args.seed + i)
            lines.append(" ".join(str(x) for x in f.values))
        _write_out(args, "\n".join(lines) + "\n")
        return 0
    g = read_graph(args.graph)
    M = args.M if args.mode == "lipschitz" else None
    arr = mcmc_sample_array(
        g,
        args.v0,
        args.mode,
        M=M,
        burnin=args.burnin,
        thin=args.thin,
        n_samples=args.n_samples,
        seed=args.seed,
    )
    lines = [
        f"# sample sampler=mcmc mode={args.mode} M={M} v0={args.v0} "
        f"burnin={args.burnin} thin={args.thin} n_samples={args.n_samples} seed={args.seed}"
    ]
    for row in arr:
        lines.append(" ".join(map(str, row.tolist())))
    _write_out(args, "\n".join(lines) + "\n")
    return 0


def _read_function(path: str) -> list[int]:
    vals = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                vals.append(int(line))
    return vals


def _cmd_phase(args) -> int:
    g = read_graph(args.graph)
    vals = _read_function(args.function)
    lam = _lam(g, args)
    if args.mode == "lipschitz":
        f = lipschitz(vals, args.v0, args.M)
        ph = phase_lipschitz(g, f, lam)
        payload = {"k": ph.lo, "hi": ph.hi, "lambda": lam, "seed": args.seed}
    else:
        f = homomorphism(vals, args.v0)
        ph = phase_hom(g, f, lam)
        payload = {
            "k": ph.lo,
            "i_star": ph.class_index,
            "lambda": lam,
            "seed": args.seed,
        }
    if args.vertices:
        payload["deviation"] = {
            int(v): ph.dist(f.values[int(v)]) for v in args.vertices.split(",")
        }
    _write_out(args, json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_verify_transform(args) -> int:
    g = read_graph(args.graph)
    M = args.M if args.mode == "lipschitz" else None
    lam = _lam(g, args) if args.k_strategy == "phase" else None
    rep = transform.verify_counting(
        g,
        args.v0,
        args.v,
        args.t,
        args.mode,
        M=M,
        k_strategy=args.k_strategy,
        lam=lam,
        cap=args.cap,
    )
    payload = rep.as_dict()
    payload["lambda"] = lam
    payload["seed"] = args.seed
    _write_out(args, json.dumps(payload, sort_keys=True) + "\n")
    return 0 if rep.all_passed else 1


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    if args.seed is not None:
        cfg = type(cfg)(**{**cfg.__dict__, "seed": args.seed})
    result = run_experiment(cfg)
    if args.out:
        emit_report(result, args.out, args.format)
    else:
        sys.stdout.write(result_to_text(result, args.format))
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "certify": _cmd_certify,
    "enumerate": _cmd_enumerate,
    "sample": _cmd_sample,
    "phase": _cmd_phase,
    "verify-transform": _cmd_verify_transform,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _DISPATCH[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
