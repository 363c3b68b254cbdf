"""Command-line interface.

Subcommands: gen, certify, enumerate, sample, phase, verify-transform,
experiment.  All output is deterministic for a fixed seed; seeds and
parameters are echoed into output headers.  Rejected input (a bad flag or
value, an unreadable file, an exceeded cap) prints one line on stderr and
exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import expansion, transform
from .experiments import emit_report, parse_config, result_to_text, run_experiment
from .graphs import (
    GraphError,
    check_vertex,
    gen_random_bipartite_regular,
    gen_random_regular,
    gen_tree,
    graph_to_text,
    read_graph,
)
from .heights import phase_hom, phase_lipschitz, validate
from .samplers import CapExceeded, enumerate_functions, mcmc_sample_array
from .treedp import tree_dp, tree_sample

__all__ = ["main", "build_parser"]


def _write_out(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_rows(args, header: str, rows) -> None:
    """The header line, then one line of space-separated values per row."""
    lines = [header] + [" ".join(map(str, row)) for row in rows]
    _write_out(args, "\n".join(lines) + "\n")


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None)


_CAP_HELP = (
    "stop when a level of the enumeration (the valid assignments of the first "
    "k vertices in BFS order) would exceed this many rows"
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="liphom",
        description="Height functions on expanders: generation, expansion parameters, "
        "exact counting, sampling and verification.",
    )
    sp = p.add_subparsers(dest="command", required=True)

    g = sp.add_parser("gen", help="generate a graph and write it as text")
    g.add_argument("--type", required=True, choices=("regular", "bipartite", "tree", "glued-tree"))
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--h", type=int)
    _common(g)

    c = sp.add_parser("certify", help="expansion parameters and predicates for a graph file")
    c.add_argument("graph")
    c.add_argument("--M", type=int, default=None)
    _common(c)

    e = sp.add_parser("enumerate", help="enumerate a height-function family")
    e.add_argument("graph")
    e.add_argument("--mode", required=True, choices=("lipschitz", "hom"))
    e.add_argument("--M", type=int)
    e.add_argument("--v0", type=int, default=0)
    e.add_argument("--cap", type=int, default=10_000_000, help=_CAP_HELP)
    _common(e)

    s = sp.add_parser("sample", help="draw samples (Glauber MCMC or exact tree)")
    s.add_argument("--sampler", required=True, choices=("mcmc", "tree"))
    s.add_argument("--graph")
    s.add_argument("--mode", default="lipschitz", choices=("lipschitz", "hom"))
    # defaults in _NEEDS, so that a choice that does not read a flag rejects it
    s.add_argument("--M", type=int)
    s.add_argument("--v0", type=int)
    s.add_argument("--burnin", type=int)
    s.add_argument("--thin", type=int)
    s.add_argument("--n-samples", type=int, default=100)
    s.add_argument("--d", type=int)
    s.add_argument("--h", type=int)
    _common(s)

    ph = sp.add_parser("phase", help="phase of a height function")
    ph.add_argument("graph")
    ph.add_argument("function", help="file with one integer per vertex per line")
    ph.add_argument("--mode", required=True, choices=("lipschitz", "hom"))
    ph.add_argument("--M", type=int)
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
    vt.add_argument("--M", type=int)
    vt.add_argument("--v0", type=int, default=0)
    vt.add_argument("--v", type=int, required=True)
    vt.add_argument("--t", type=int, default=1)
    vt.add_argument("--lam", type=float, default=None)
    vt.add_argument(
        "--lam-source", choices=("spectral", "exhaustive"), default="exhaustive"
    )
    vt.add_argument("--k-strategy", choices=("phase", "zero"), default="phase")
    vt.add_argument("--cap", type=int, default=10_000_000, help=_CAP_HELP)
    _common(vt)

    ex = sp.add_parser("experiment", help="run a config-driven experiment")
    ex.add_argument("config")
    ex.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    _common(ex)
    ex.set_defaults(seed=None)  # without --seed the config's seed stands

    return p


def _lam(g, args) -> float:
    source = "explicit" if args.lam is not None else args.lam_source
    return expansion.resolve_lambda(g, args.mode, source, args.lam)


def _cmd_gen(args) -> int:
    if args.type == "glued-tree":
        # the glue vertex keeps parallel edges, which read_graph rejects
        raise GraphError(
            "--type glued-tree has parallel edges, which the graph text format "
            "cannot hold; build it with gen_tree(d, h, glued=True)"
        )
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
    rep = expansion.certify(g, args.M)
    payload = {**dataclasses.asdict(rep), "seed": args.seed}
    _write_out(args, json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_enumerate(args) -> int:
    g = read_graph(args.graph)
    res = enumerate_functions(g, args.v0, args.mode, M=args.M, cap=args.cap)
    header = f"# enumerate mode={args.mode} M={res.M} v0={args.v0} seed={args.seed} count={res.count}"
    rows = res.rows[np.lexsort(res.rows.T[::-1])]  # rows in increasing tuple order
    _write_rows(args, header, rows.tolist())
    return 0


def _cmd_sample(args) -> int:
    if args.sampler == "tree":
        if args.n_samples < 0:
            raise ValueError(f"--n-samples must be non-negative, got {args.n_samples}")
        dp = tree_dp(args.d, args.h, mode=args.mode, M=args.M)
        header = (
            f"# sample sampler=tree d={args.d} h={args.h} mode={args.mode} "
            f"M={dp.M} n_samples={args.n_samples} seed={args.seed}"
        )
        _write_rows(args, header, (tree_sample(dp, args.seed + i) for i in range(args.n_samples)))
        return 0
    g = read_graph(args.graph)
    arr = mcmc_sample_array(
        g,
        args.v0,
        args.mode,
        M=args.M,
        burnin=args.burnin,
        thin=args.thin,
        n_samples=args.n_samples,
        seed=args.seed,
    )
    header = (
        f"# sample sampler=mcmc mode={args.mode} M={args.M} v0={args.v0} "
        f"burnin={args.burnin} thin={args.thin} n_samples={args.n_samples} seed={args.seed}"
    )
    _write_rows(args, header, (row.tolist() for row in arr))
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
    problems = validate(g, vals, args.v0, args.mode, args.M)
    if problems:
        raise ValueError(f"{args.function}: {problems[0]}")
    vertices = [int(v) for v in args.vertices.split(",")] if args.vertices else []
    for v in vertices:
        check_vertex(g, v)
    lam = _lam(g, args)
    if args.mode == "lipschitz":
        lo, hi = phase_lipschitz(g, vals, lam, args.M)
        payload = {"k": lo, "hi": hi, "lambda": lam, "seed": args.seed}
    else:
        lo, i_star = phase_hom(g, vals, lam, args.v0)
        hi = lo
        payload = {"k": lo, "i_star": i_star, "lambda": lam, "seed": args.seed}
    if vertices:
        payload["deviation"] = {v: max(lo - vals[v], vals[v] - hi, 0) for v in vertices}
    _write_out(args, json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_verify_transform(args) -> int:
    g = read_graph(args.graph)
    if args.k_strategy != "phase" and args.lam is not None:
        raise ValueError(f"--lam is read only with --k-strategy phase, not {args.k_strategy}")
    lam = _lam(g, args) if args.k_strategy == "phase" else None
    rep = transform.verify_counting(
        g,
        args.v0,
        args.v,
        args.t,
        args.mode,
        M=args.M,
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


# flags that one value of a subcommand's choice option reads, each with its
# default (None: the flag is required): command -> [(option, {value: {flag:
# default}}), ...]; a listed value reads no other flag listed in its table
_MODE_M = ("mode", {"lipschitz": {"M": 1}, "hom": {}})
_NEEDS = {
    "gen": [("type", {
        "regular": {"n": None, "d": None},
        "bipartite": {"n": None, "d": None},
        "tree": {"d": None, "h": None},
    })],
    "enumerate": [_MODE_M],
    "sample": [("sampler", {
        "mcmc": {"graph": None, "v0": 0, "burnin": 10_000, "thin": 10},
        "tree": {"d": None, "h": None},
    }), _MODE_M],
    "phase": [_MODE_M],
    "verify-transform": [_MODE_M],
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed {args.seed} must be at least 0")
    for option, needs in _NEEDS.get(args.command, ()):
        choice = getattr(args, option)
        if choice in needs:
            reads = needs[choice]
            for flag, default in reads.items():
                if getattr(args, flag) is None:
                    setattr(args, flag, default)
            missing = [f"--{flag}" for flag in reads if getattr(args, flag) is None]
            if missing:
                parser.error(f"{args.command} --{option} {choice} needs {' and '.join(missing)}")
            others = dict.fromkeys(flag for flags in needs.values() for flag in flags if flag not in reads)
            unread = [f"--{flag}" for flag in others if getattr(args, flag) is not None]
            if unread:
                parser.error(f"{args.command} --{option} {choice} does not read {' or '.join(unread)}")
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, CapExceeded, OSError) as exc:
        # bad input found after parsing; TypeError and AssertionError are bugs
        sys.stderr.write(f"liphom {args.command}: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
