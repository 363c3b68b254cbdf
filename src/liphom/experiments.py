"""Config-driven experiment runner evaluating the concentration bounds
exactly where their hypotheses are attainable and empirically elsewhere."""

from __future__ import annotations

import bisect
import decimal
import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import expansion
from .graphs import (
    Graph,
    GraphError,
    ball,
    build_graph,
    distances_from,
    gen_random_bipartite_regular,
    gen_random_regular,
    gen_tree,
    read_graph,
    tree_ball_size,
    tree_level_offsets,
)
from .heights import phases_hom, phases_lipschitz
from .samplers import BLOCK_VALUES, enumerate_functions, mcmc_sample_array
from .treedp import tree_dp

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "parse_config",
    "run_experiment",
    "emit_report",
    "result_to_text",
]

HYPOTHESES_NOT_MET = "hypotheses-not-met"

COLUMNS = (
    "vertex",
    "t",
    "estimate",
    "exact",
    "bound",
    "ball_size",
    "n_samples",
    "seed",
    "config_hash",
    "note",
)


# config keys with a closed set of values, checked when a config is built
_CHOICES = {
    "kind": ("deviation", "max", "tree", "hom-exact"),
    "graph_type": ("file", "regular", "bipartite", "complete_bipartite", "tree"),
    "mode": ("lipschitz", "hom"),
    "sampler": ("exact", "mcmc"),
    "lambda_source": ("spectral", "exhaustive", "explicit"),
}

# fields that a graph_type, or kind = tree (which builds no graph), needs
_NEEDS = {
    "regular": ("n", "d"),
    "bipartite": ("n", "d"),
    "complete_bipartite": ("m",),
    "tree": ("d", "h"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    graph_type: str = "file"
    graph_path: str | None = None
    n: int | None = None
    d: int | None = None
    h: int | None = None
    m: int | None = None
    mode: str = "lipschitz"
    M: int = 1
    v0: int = 0
    targets: str = "v0"  # "v0", "all", or comma-separated vertex ids
    t_min: int = 1
    t_max: int | None = None
    sampler: str = "exact"  # exact | mcmc
    burnin: int = 10_000
    thin: int = 10
    n_samples: int = 1000
    lambda_source: str = "spectral"  # spectral | exhaustive | explicit
    lambda_value: float | None = None
    seed: int = 0
    cap: int = 10_000_000

    def __post_init__(self):
        for key, allowed in _CHOICES.items():
            val = getattr(self, key)
            if val not in allowed:
                raise ValueError(f"config {key} = {val!r}: expected one of {', '.join(allowed)}")
        tree = self.kind == "tree"
        for key in _NEEDS.get("tree" if tree else self.graph_type, ()):
            if getattr(self, key) is None:
                what = "kind = tree" if tree else f"graph_type = {self.graph_type}"
                raise ValueError(f"config {what} needs {key}")
        explicit = self.lambda_source == "explicit"
        if explicit and self.lambda_value is None:
            raise ValueError("config lambda_source = explicit needs lambda_value")
        if not explicit and self.lambda_value is not None:
            raise ValueError(
                f"config lambda_value = {self.lambda_value} is read only with "
                f"lambda_source = explicit, not {self.lambda_source}"
            )

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(self.__dataclass_fields__):
            val = getattr(self, key)
            if val is None:
                continue
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


_INT_KEYS = {
    "n", "d", "h", "m", "M", "v0", "t_min", "t_max",
    "burnin", "thin", "n_samples", "seed", "cap",
}


def parse_config(text: str) -> ExperimentConfig:
    """Flat key = value lines; '#' starts a comment."""
    data: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in ExperimentConfig.__dataclass_fields__:
            raise ValueError(f"unknown config key {key!r}")
        if key in _INT_KEYS:
            data[key] = int(val)
        elif key == "lambda_value":
            data[key] = float(val)
        else:
            data[key] = val
    if "kind" not in data:
        raise ValueError("config must set 'kind'")
    return ExperimentConfig(**data)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _build_graph_from_config(cfg: ExperimentConfig) -> Graph:
    if cfg.graph_type == "file":
        if not cfg.graph_path:
            raise ValueError("graph_type=file needs graph_path")
        return read_graph(cfg.graph_path)
    if cfg.graph_type == "regular":
        return gen_random_regular(cfg.n, cfg.d, cfg.seed)
    if cfg.graph_type == "bipartite":
        return gen_random_bipartite_regular(cfg.n, cfg.d, cfg.seed)
    if cfg.graph_type == "complete_bipartite":
        m = cfg.m
        edges = [(i, m + j) for i in range(m) for j in range(m)]
        return build_graph(2 * m, edges, bipartition=(range(m), range(m, 2 * m)))
    # "tree": graph_type was checked against _CHOICES when cfg was built
    return gen_tree(cfg.d, cfg.h, glued=False)


def _target_vertices(n: int, cfg: ExperimentConfig) -> list[int]:
    if cfg.targets == "all":
        return list(range(n))
    if cfg.targets == "v0":
        targets = [cfg.v0]
    else:
        targets = [int(x) for x in cfg.targets.split(",")]
    for v in targets:
        if not (0 <= v < n):
            raise GraphError(f"target vertex {v} out of range")
    return targets


def _t_range(g: Graph, cfg: ExperimentConfig, lam: float, d: int, n_norm: int) -> range:
    if cfg.t_max is not None:
        return range(cfg.t_min, cfg.t_max + 1)
    # default upper end: the diameter corollary bound when applicable
    if 0 < lam < d / 2:
        t_hi = max(cfg.t_min, math.ceil(math.log(max(n_norm, 2)) / math.log(d / (2 * lam))))
    else:
        t_hi = max(cfg.t_min, max(distances_from(g, cfg.v0)))
    return range(cfg.t_min, t_hi + 1)


# str(int) refuses more than 4300 digits (sys.get_int_max_str_digits);
# an exact decimal conversion has no such limit and gives the same digits
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)


def _fmt_fraction(q: Fraction) -> str:
    num, den = (_EXACT.create_decimal(x) for x in (q.numerator, q.denominator))
    return f"{num:f}/{den:f}"


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    if cfg.kind == "deviation":
        return _run_deviation(cfg)
    if cfg.kind == "max":
        return _run_max(cfg)
    if cfg.kind == "tree":
        return _run_tree(cfg)
    # "hom-exact": kind was checked against _CHOICES when cfg was built
    return _run_hom_exact(cfg)


def _deviation_counts(g, cfg, lam, rows, targets, top) -> np.ndarray:
    """counts[j, c] = |{samples : deviation of f(targets[j]) from phase(f) is
    c}| for c < top, and counts[j, top] those with deviation >= top."""
    counts = np.zeros((len(targets), top + 1), dtype=np.int64)
    # column j of a block's clipped deviations lands in bins j*(top+1)...
    shift = (top + 1) * np.arange(len(targets))
    step = max(1, BLOCK_VALUES // g.n)
    for start in range(0, rows.shape[0], step):
        block = rows[start : start + step]
        if cfg.mode == "lipschitz":
            lo, hi = phases_lipschitz(g, block, lam, cfg.M)
        else:
            lo, _ = phases_hom(g, block, lam, cfg.v0)
            hi = lo
        vals = block[:, targets]
        dev = np.maximum(np.maximum(lo[:, None] - vals, vals - hi[:, None]), 0)
        counts += np.bincount(
            (np.minimum(dev, top) + shift).ravel(), minlength=counts.size
        ).reshape(counts.shape)
    return counts


def _run_deviation(cfg: ExperimentConfig) -> ExperimentResult:
    g = _build_graph_from_config(cfg)
    mode = cfg.mode
    d = g.degree
    M = cfg.M if mode == "lipschitz" else None
    lam = expansion.resolve_lambda(g, mode, cfg.lambda_source, cfg.lambda_value)
    n_norm = g.n // 2 if mode == "hom" else g.n
    preds = expansion.goodness(d, lam, M)
    hyp_ok = preds[f"M-good({cfg.M})"] if mode == "lipschitz" else preds["good-bi"]

    result = ExperimentResult(config=cfg)
    chash = cfg.hash()

    if cfg.sampler == "exact":
        rows = enumerate_functions(g, cfg.v0, mode, M=M, cap=cfg.cap).rows
        exact = True
    else:
        rows = mcmc_sample_array(
            g,
            cfg.v0,
            mode,
            M=M,
            burnin=cfg.burnin,
            thin=cfg.thin,
            n_samples=cfg.n_samples,
            seed=cfg.seed,
        )
        exact = False
    n_s = rows.shape[0]

    targets = sorted(set(_target_vertices(g.n, cfg)))
    trange = _t_range(g, cfg, lam, d, n_norm)
    cuts = [(t - 1) * cfg.M if mode == "lipschitz" else t for t in trange]
    # deviations above every cut share the last bin
    counts = _deviation_counts(g, cfg, lam, rows, targets, max([0] + [c + 1 for c in cuts]))
    for j, v in enumerate(targets):
        prev = None
        for t, cut in zip(trange, cuts):
            hits = int(counts[j, max(cut + 1, 0) :].sum())
            est = hits / n_s
            if prev is not None and est > prev + 1e-15:
                raise AssertionError("deviation tail increased in t")
            prev = est
            bsize = len(ball(g, v, t))
            if hyp_ok:
                denom = 5 * (cfg.M + 1) if mode == "lipschitz" else 3
                bound = math.exp(-bsize / denom)
            else:
                bound = HYPOTHESES_NOT_MET
            note = ""
            if mode == "hom" and t == 1:
                note = "t1"
            result.rows.append(
                {
                    "vertex": v,
                    "t": t,
                    "estimate": est,
                    "exact": _fmt_fraction(Fraction(hits, n_s)) if exact else None,
                    "bound": bound,
                    "ball_size": bsize,
                    "n_samples": n_s,
                    "seed": cfg.seed,
                    "config_hash": chash,
                    "note": note,
                }
            )
    result.summary = {
        "lambda": lam,
        "lambda_source": cfg.lambda_source,
        "predicates": preds,
        "hypotheses_met": hyp_ok,
    }
    return result


def _run_max(cfg: ExperimentConfig) -> ExperimentResult:
    g = _build_graph_from_config(cfg)
    mode = cfg.mode
    if cfg.sampler != "mcmc":
        raise ValueError("max experiment uses the mcmc sampler")
    arr = mcmc_sample_array(
        g,
        cfg.v0,
        mode,
        M=cfg.M if mode == "lipschitz" else None,
        burnin=cfg.burnin,
        thin=cfg.thin,
        n_samples=cfg.n_samples,
        seed=cfg.seed,
    )
    mx = arr.max(axis=1)
    mxabs = np.abs(arr).max(axis=1)
    loglog = math.log(math.log(g.n))
    chash = cfg.hash()
    result = ExperimentResult(config=cfg)
    for q in (50, 90, 99, 100):
        result.rows.append(
            {
                "vertex": -1,
                "t": q,
                "estimate": float(np.percentile(mx, q)),
                "exact": None,
                "bound": None,  # the paper gives no constant for M log log n
                "ball_size": g.n,
                "n_samples": len(mx),
                "seed": cfg.seed,
                "config_hash": chash,
                "note": "max-quantile",
            }
        )
    result.summary = {
        "loglog_n": loglog,
        "mean_max": float(mx.mean()),
        "mean_max_abs": float(mxabs.mean()),
        "ratio_max_over_M_loglog": float(mx.mean() / (cfg.M * loglog)),
    }
    return result


def _run_tree(cfg: ExperimentConfig) -> ExperimentResult:
    d, h, M = cfg.d, cfg.h, cfg.M
    mode = cfg.mode
    dp = tree_dp(d, h, mode=mode, M=M if mode == "lipschitz" else None)
    # BFS numbering keeps levels contiguous: depths and ball sizes come from
    # the level offsets, so the tree itself is never built
    offsets = tree_level_offsets(d, h)
    targets = _target_vertices(offsets[-1], cfg)
    trange = range(cfg.t_min, (cfg.t_max if cfg.t_max is not None else h) + 1)
    chash = cfg.hash()
    slope = M if mode == "lipschitz" else 1
    hyp_ok = mode == "lipschitz" and d > 40 * (M + 1) * math.log(M + 1)
    result = ExperimentResult(config=cfg)
    for v in sorted(targets):
        depth = bisect.bisect_right(offsets, v) - 1
        for t in trange:
            p = dp.tail_probability(depth, (t - 1) * slope)
            logp = dp.log_tail_probability(depth, (t - 1) * slope)
            if hyp_ok and h - depth > t:
                bound = -d * (d - 1) ** (t - 1) / (5 * (M + 1))  # log-domain
                note = "log-bound"
            else:
                bound = HYPOTHESES_NOT_MET
                note = ""
            result.rows.append(
                {
                    "vertex": v,
                    "t": t,
                    "estimate": logp,
                    "exact": _fmt_fraction(p),
                    "bound": bound,
                    "ball_size": tree_ball_size(d, h, depth, t),
                    "n_samples": 0,
                    "seed": cfg.seed,
                    "config_hash": chash,
                    "note": note,
                }
            )
    result.summary = {
        "total": str(dp.total) if dp.total < 10**40 else f"~exp({dp.log_total:.3f})",
        "hypotheses_met": hyp_ok,
    }
    return result


def _run_hom_exact(cfg: ExperimentConfig) -> ExperimentResult:
    sub = ExperimentConfig(**{**cfg.__dict__, "kind": "deviation", "mode": "hom", "sampler": "exact"})
    return _run_deviation(sub)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def result_to_text(result: ExperimentResult, fmt: str = "csv") -> str:
    rows = sorted(
        result.rows, key=lambda r: (r["vertex"], r["t"], r["note"])
    )
    if fmt == "csv":
        lines = [",".join(COLUMNS)]
        for r in rows:
            lines.append(",".join(_cell(r[c]) for c in COLUMNS))
        return "\n".join(lines) + "\n"
    if fmt == "jsonl":
        lines = []
        for r in rows:
            lines.append(json.dumps({c: r[c] for c in COLUMNS}, sort_keys=False))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def emit_report(result: ExperimentResult, path, fmt: str = "csv") -> None:
    """Write rows in a stable column order plus a resolved-config sidecar;
    byte-for-byte reproducible for identical results."""
    text = result_to_text(result, fmt)
    with open(path, "w") as fh:
        fh.write(text)
    sidecar = str(path) + ".config"
    with open(sidecar, "w") as fh:
        fh.write(result.config.canonical_text())
        fh.write("# summary\n")
        for key in sorted(result.summary):
            fh.write(f"# {key} = {result.summary[key]}\n")
