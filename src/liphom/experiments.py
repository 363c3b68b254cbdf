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
    _INT,
    Graph,
    GraphError,
    build_graph,
    distances_from,
    gen_random_bipartite_regular,
    gen_random_regular,
    gen_tree,
    read_graph,
    tree_ball_size,
    tree_level_offsets,
)
from .heights import family_slope, phase_windows
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


def _read_int(text: str) -> int:
    """An integer by the graph format's grammar [+-]?[0-9]+ (``int()`` also
    reads "1_0" as 10 and non-ASCII digits)."""
    if not _INT.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _listed_targets(text: str) -> list[int]:
    """The vertex ids of a comma-separated targets value (spaces and tabs
    around an id are allowed, as in ``liphom phase --vertices``)."""
    try:
        return [_read_int(x.strip(" \t")) for x in text.split(",")]
    except ValueError:
        raise ValueError(
            f"config targets = {text!r}: expected v0, all or comma-separated vertex ids"
        ) from None


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
        if explicit:
            expansion.check_lambda(self.lambda_value, "config lambda_value")
        # checked here so that a bad value fails before any graph is built
        if self.kind == "max" and self.sampler != "mcmc":
            raise ValueError("config kind = max needs sampler = mcmc")
        if self.kind == "hom-exact" and self.mode != "hom":
            raise ValueError("config kind = hom-exact needs mode = hom")
        if self.kind == "hom-exact" and self.sampler != "exact":
            raise ValueError("config kind = hom-exact needs sampler = exact")
        lows = {"seed": 0, "t_min": 0, "cap": 1}
        if self.graph_type == "complete_bipartite" and not tree:
            lows["m"] = 1
        if self.mode == "lipschitz":
            lows["M"] = 1
        if self.sampler == "mcmc":
            lows.update(burnin=0, thin=1, n_samples=1)
        for key, low in lows.items():
            if getattr(self, key) < low:
                raise ValueError(f"config {key} = {getattr(self, key)} must be at least {low}")
        if self.t_max is not None and self.t_max < self.t_min:
            raise ValueError(f"config t_max = {self.t_max} is below t_min = {self.t_min}")
        if self.targets not in ("v0", "all"):
            _listed_targets(self.targets)  # the range is checked once a graph exists

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


def parse_config(text: str) -> ExperimentConfig:
    """Flat key = value lines, each read as its field's type; '#' starts a comment."""
    parsers = {"int": _read_int, "float": float, "str": str}
    data: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        fld = ExperimentConfig.__dataclass_fields__.get(key)
        if fld is None:
            raise ValueError(f"unknown config key {key!r}")
        if key in data:
            raise ValueError(f"config key {key!r} is given twice")
        type_name = fld.type.removesuffix(" | None")
        try:
            data[key] = parsers[type_name](val)
        except ValueError:
            raise ValueError(f"config {key} = {val!r} does not read as {type_name}") from None
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
    """The config's target vertices, sorted and distinct."""
    if cfg.targets == "all":
        return list(range(n))
    if cfg.targets == "v0":
        targets = [cfg.v0]
    else:
        targets = _listed_targets(cfg.targets)
    for v in targets:
        if not (0 <= v < n):
            raise GraphError(f"target vertex {v} out of range")
    return sorted(set(targets))


def _t_range(g: Graph, cfg: ExperimentConfig, lam: float, d: int, n_norm: int) -> range:
    if cfg.t_max is not None:
        return range(cfg.t_min, cfg.t_max + 1)
    # default upper end: the diameter corollary's bound where it applies
    bound = expansion.diameter_bound(n_norm, d, lam, "bipartite" if cfg.mode == "hom" else "general")
    t_hi = max(distances_from(g, cfg.v0)) if bound is None else math.ceil(bound)
    return range(cfg.t_min, max(cfg.t_min, t_hi) + 1)


# _ExactDigits splits integers past this many bits; on the ~64k-bit tails of
# a d = 3, h = 15 report, 1024 and 2048 were fastest (512 and 4096 ~15 % slower)
_DIRECT_BITS = 2048


class _ExactDigits:
    """Decimal digits of integers of any size, for one report.

    str(int) refuses more than 4300 digits (sys.get_int_max_str_digits), and
    Decimal(int) is exact but quadratic in the digit count.  An integer past
    _DIRECT_BITS is split as hi * 2^w + lo and rebuilt from the Decimals of
    its halves by one product and one sum, which libmpdec does in about
    linear time.  The powers 2^w are kept.
    """

    def __init__(self) -> None:
        self._pow2: dict[int, decimal.Decimal] = {}
        self._kept: dict[int, str] = {}

    def __call__(self, n: int, keep: bool = False) -> str:
        """n in decimal; keep: remember the digits by value, for values that
        recur (a report's tails share a few denominators)."""
        if n.bit_length() <= _DIRECT_BITS:
            return f"{decimal.Decimal(n):f}"
        s = self._kept.get(n)
        if s is None:
            with decimal.localcontext() as ctx:
                # sums and products of integers are exact here; were one
                # not, Inexact would raise
                ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
                ctx.traps[decimal.Inexact] = True
                s = f"{self._decimal(n):f}"
            if keep:
                self._kept[n] = s
        return s

    def _decimal(self, n: int) -> decimal.Decimal:
        bits = n.bit_length()
        if bits <= _DIRECT_BITS:
            return decimal.Decimal(n)
        w = _DIRECT_BITS  # the largest w = _DIRECT_BITS * 2^k below bits
        while 2 * w < bits:
            w *= 2
        return self._decimal(n >> w) * self._power(w) + self._decimal(n & ((1 << w) - 1))

    def _power(self, w: int) -> decimal.Decimal:
        p = self._pow2.get(w)
        if p is None:
            if w == _DIRECT_BITS:
                p = decimal.Decimal(1 << w)
            else:
                half = self._power(w // 2)
                p = half * half
            self._pow2[w] = p
        return p


def _fmt_fraction(q: Fraction, digits: _ExactDigits | None = None) -> str:
    """q as "numerator/denominator" in decimal; digits converts each term
    (a fresh _ExactDigits if None)."""
    digits = digits or _ExactDigits()
    return f"{digits(q.numerator)}/{digits(q.denominator, keep=True)}"


def _row(cfg, vertex, t, estimate, exact, bound, ball_size, n_samples, note="") -> dict:
    """One report row, keyed by COLUMNS; seed and config_hash come from cfg."""
    values = (vertex, t, estimate, exact, bound, ball_size, n_samples, cfg.seed, cfg.hash(), note)
    return dict(zip(COLUMNS, values))


def _rows(g: Graph, cfg: ExperimentConfig) -> np.ndarray:
    """The config's functions on g, one per row: the whole family
    (sampler = exact) or the Glauber chain's samples (sampler = mcmc)."""
    if cfg.sampler == "exact":
        return enumerate_functions(g, cfg.v0, cfg.mode, M=cfg.M, cap=cfg.cap).rows
    # burnin, thin and n_samples by keyword: perfbench's tracer counts steps from them
    return mcmc_sample_array(
        g, cfg.v0, cfg.mode, M=cfg.M,
        burnin=cfg.burnin, thin=cfg.thin, n_samples=cfg.n_samples, seed=cfg.seed,
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    if cfg.kind == "max":
        return _run_max(cfg)
    if cfg.kind == "tree":
        return _run_tree(cfg)
    # "deviation", or "hom-exact", which the config pins to mode = hom and
    # sampler = exact; kind was checked against _CHOICES when cfg was built
    return _run_deviation(cfg)


def _deviation_counts(g, cfg, lam, rows, targets, top) -> np.ndarray:
    """counts[j, c] = |{samples : deviation of f(targets[j]) from phase(f) is
    c}| for c < top, and counts[j, top] those with deviation >= top."""
    counts = np.zeros((len(targets), top + 1), dtype=np.int64)
    # column j of a block's clipped deviations lands in bins j*(top+1)...
    shift = (top + 1) * np.arange(len(targets))
    step = max(1, BLOCK_VALUES // g.n)
    for start in range(0, rows.shape[0], step):
        block = rows[start : start + step]
        lo, hi = phase_windows(g, block, lam, cfg.mode, cfg.M, cfg.v0)
        vals = block[:, targets]
        dev = np.maximum(np.maximum(lo[:, None] - vals, vals - hi[:, None]), 0)
        counts += np.bincount(
            (np.minimum(dev, top) + shift).ravel(), minlength=counts.size
        ).reshape(counts.shape)
    return counts


def _run_deviation(cfg: ExperimentConfig) -> ExperimentResult:
    g = _build_graph_from_config(cfg)
    if g.degree is None:  # checked before lambda and sampling
        raise GraphError(
            f"config kind = {cfg.kind} needs a regular graph; "
            f"graph_type = {cfg.graph_type} gave one with no uniform degree"
        )
    targets = _target_vertices(g.n, cfg)
    mode = cfg.mode
    d = g.degree
    lam = expansion.resolve_lambda(g, mode, cfg.lambda_source, cfg.lambda_value)
    n_norm = g.n // 2 if mode == "hom" else g.n
    # only the mode's own predicate: good-bi belongs to the class-pair lambda
    key = f"M-good({cfg.M})" if mode == "lipschitz" else "good-bi"
    hyp_ok = expansion.goodness(d, lam, cfg.M if mode == "lipschitz" else None)[key]
    preds = {key: hyp_ok}

    result = ExperimentResult(config=cfg)
    rows = _rows(g, cfg)
    n_s = rows.shape[0]

    trange = _t_range(g, cfg, lam, d, n_norm)
    cuts = [(t - 1) * cfg.M if mode == "lipschitz" else t for t in trange]
    # deviations above every cut share the last bin
    counts = _deviation_counts(g, cfg, lam, rows, targets, max([0] + [c + 1 for c in cuts]))
    for j, v in enumerate(targets):
        # ball_sizes[t] = |ball(v, t)| for t up to v's eccentricity
        dist = np.array(distances_from(g, v))
        ball_sizes = np.cumsum(np.bincount(dist[dist >= 0]))
        prev = None
        for t, cut in zip(trange, cuts):
            hits = int(counts[j, max(cut + 1, 0) :].sum())
            est = hits / n_s
            if prev is not None and est > prev + 1e-15:
                raise AssertionError("deviation tail increased in t")
            prev = est
            bsize = int(ball_sizes[min(t, ball_sizes.size - 1)])
            if hyp_ok:
                denom = 5 * (cfg.M + 1) if mode == "lipschitz" else 3
                bound = math.exp(-bsize / denom)
            else:
                bound = HYPOTHESES_NOT_MET
            exact = _fmt_fraction(Fraction(hits, n_s)) if cfg.sampler == "exact" else None
            note = "t1" if mode == "hom" and t == 1 else ""
            result.rows.append(_row(cfg, v, t, est, exact, bound, bsize, n_s, note))
    result.summary = {
        "lambda": lam,
        "lambda_source": cfg.lambda_source,
        "predicates": preds,
        "hypotheses_met": hyp_ok,
    }
    return result


def _run_max(cfg: ExperimentConfig) -> ExperimentResult:
    g = _build_graph_from_config(cfg)
    if g.n < 3:  # log log n > 0 needs n >= 3; checked before sampling
        raise GraphError(
            f"config kind = max needs at least 3 vertices; graph_type = {cfg.graph_type} gave {g.n}"
        )
    arr = _rows(g, cfg)  # the config pins kind = max to sampler = mcmc
    # in int64: np.percentile interpolates in its input's type, which may
    # be as narrow as int8
    mx = arr.max(axis=1).astype(np.int64)
    mxabs = np.abs(arr).max(axis=1).astype(np.int64)
    loglog = math.log(math.log(g.n))
    result = ExperimentResult(config=cfg)
    for q in (50, 90, 99, 100):
        # the paper gives no constant for M log log n, so no bound
        result.rows.append(
            _row(cfg, -1, q, float(np.percentile(mx, q)), None, None, g.n, len(mx), "max-quantile")
        )
    result.summary = {
        "loglog_n": loglog,
        "mean_max": float(mx.mean()),
        "mean_max_abs": float(mxabs.mean()),
        "ratio_max_over_M_loglog": float(mx.mean() / (family_slope(cfg.mode, cfg.M) * loglog)),
    }
    return result


def _run_tree(cfg: ExperimentConfig) -> ExperimentResult:
    d, h, M = cfg.d, cfg.h, cfg.M
    mode = cfg.mode
    # BFS numbering keeps levels contiguous: depths and ball sizes come from
    # the level offsets, so the tree itself is never built
    offsets = tree_level_offsets(d, h)
    targets = _target_vertices(offsets[-1], cfg)
    dp = tree_dp(d, h, mode=mode, M=M)
    trange = range(cfg.t_min, (cfg.t_max if cfg.t_max is not None else h) + 1)
    hyp_ok = mode == "lipschitz" and d > 40 * (M + 1) * math.log(M + 1)
    result = ExperimentResult(config=cfg)
    digits = _ExactDigits()
    for v in targets:
        depth = bisect.bisect_right(offsets, v) - 1
        for t in trange:
            p = dp.tail_probability(depth, (t - 1) * dp.slope)
            logp = dp.log_tail_probability(depth, (t - 1) * dp.slope)
            # only odd h - depth - t: at an even gap the exact tails exceed
            # the bound (grounded leaves delay the decay by one level)
            gap = h - depth - t
            if hyp_ok and gap > 0 and gap % 2:
                bound = -d * (d - 1) ** (t - 1) / (5 * (M + 1))  # log-domain
                note = "log-bound"
            else:
                bound = HYPOTHESES_NOT_MET
                note = ""
            bsize = tree_ball_size(d, h, depth, t)
            exact = _fmt_fraction(p, digits)
            result.rows.append(_row(cfg, v, t, logp, exact, bound, bsize, 0, note))
    result.summary = {
        "total": str(dp.total) if dp.total < 10**40 else f"~exp({dp.log_total:.3f})",
        "hypotheses_met": hyp_ok,
    }
    return result


def _cell(value) -> str:
    return "" if value is None else str(value)


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
