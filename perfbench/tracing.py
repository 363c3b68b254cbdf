"""Spans around the library's layer entry points, and per-layer metrics.

``Tracer.install`` replaces each traced function with a wrapper at every
name a caller looks it up by: the defining module, every ``liphom`` module
that imported it (``liphom.experiments.mcmc_sample_array``,
``liphom.cli.tree_sample``, ``liphom.transform.phase_lipschitz``, ...) and
the package namespace.  TreeDP queries are methods and are wrapped on the
class.  ``uninstall`` puts the originals back.  A span is
(name, start, end, parent index); spans stay in memory until the run ends.

Parsing, formatting and file I/O (``read_graph``, ``parse_config``,
``emit_report``, ...) are not traced, so their time is self time of the
caller, mostly ``cli.main``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# span name -> (module, attribute); "Class.method" names a method.
TRACED = {
    "graphs.gen_random_regular": ("liphom.graphs", "gen_random_regular"),
    "graphs.gen_random_bipartite_regular": ("liphom.graphs", "gen_random_bipartite_regular"),
    "graphs.gen_tree": ("liphom.graphs", "gen_tree"),
    "graphs.ball": ("liphom.graphs", "ball"),
    "expansion.spectral_lambda": ("liphom.expansion", "spectral_lambda"),
    "expansion.exhaustive_lambda": ("liphom.expansion", "exhaustive_lambda"),
    "samplers.mcmc_sample_array": ("liphom.samplers", "mcmc_sample_array"),
    "samplers.enumerate_functions": ("liphom.samplers", "enumerate_functions"),
    "heights.phase_lipschitz": ("liphom.heights", "phase_lipschitz"),
    "heights.phase_hom": ("liphom.heights", "phase_hom"),
    "treedp.tree_dp": ("liphom.treedp", "tree_dp"),
    "treedp.tree_sample": ("liphom.treedp", "tree_sample"),
    "treedp.tail_probability": ("liphom.treedp", "TreeDP.tail_probability"),
    "treedp.log_tail_probability": ("liphom.treedp", "TreeDP.log_tail_probability"),
    "transform.verify_counting": ("liphom.transform", "verify_counting"),
    "transform.build_context": ("liphom.transform", "build_context"),
    "transform.apply_transform": ("liphom.transform", "apply_transform"),
    "experiments.run_experiment": ("liphom.experiments", "run_experiment"),
    "cli.main": ("liphom.cli", "main"),
}

QUERIES = ("treedp.tail_probability", "treedp.log_tail_probability")


def _mcmc_counts(args, kwargs, out):
    steps = kwargs.get("burnin", 10_000) + kwargs.get("thin", 10) * kwargs.get("n_samples", 1000)
    rows, n = out.shape
    return {"steps": steps, "rows": rows, "bytes": 16 * steps + 8 * n * rows}


# span name -> counts read from the call's arguments and result
COUNTERS = {
    "samplers.mcmc_sample_array": _mcmc_counts,
    "samplers.enumerate_functions": lambda args, kwargs, out: {"functions": out.count},
    "experiments.run_experiment": lambda args, kwargs, out: {"rows": len(out.rows)},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple[int, dict]] = []  # (span index, counts)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; spans opened during the call are its children."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = (name, t0, t1, parent)
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counts.append((idx, counter(args, kwargs, out)))
        return out

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, (mod_name, attr) in TRACED.items():
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            for m_name, m in list(sys.modules.items()):
                if m_name == "liphom" or m_name.startswith("liphom."):
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, key, wrapper)

    def _patch(self, obj, key: str, new) -> None:
        self._patched.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._patched):
            setattr(obj, key, orig)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, counts, op_counters: dict, report_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    own = self_times(spans)
    t = defaultdict(float)
    calls = defaultdict(int)
    outer_queries = 0
    for s, o in zip(spans, own):
        t[s[0]] += o
        calls[s[0]] += 1
        if s[0] in QUERIES and (s[3] < 0 or spans[s[3]][0] not in QUERIES):
            outer_queries += 1
    c = defaultdict(int)
    for idx, kv in counts:
        for k, v in kv.items():
            c[spans[idx][0] + ":" + k] += v

    def per(num, den):
        return num / den if den else 0.0

    gen_s = sum(t[k] for k in ("graphs.gen_random_regular", "graphs.gen_random_bipartite_regular", "graphs.gen_tree"))
    glauber_s = t["samplers.mcmc_sample_array"]
    steps = c["samplers.mcmc_sample_array:steps"]
    enum_s = t["samplers.enumerate_functions"]
    functions = c["samplers.enumerate_functions:functions"]
    phase_s = t["heights.phase_lipschitz"] + t["heights.phase_hom"]
    phase_calls = calls["heights.phase_lipschitz"] + calls["heights.phase_hom"]
    return {
        "graphs.gen_s": (gen_s, "s"),
        "graphs.ball_s": (t["graphs.ball"], "s"),
        "graphs.ball_calls": (calls["graphs.ball"], "count"),
        "expansion.spectral_s": (t["expansion.spectral_lambda"], "s"),
        "expansion.exhaustive_s": (t["expansion.exhaustive_lambda"], "s"),
        "samplers.glauber_s": (glauber_s, "s"),
        "samplers.steps": (steps, "count"),
        "samplers.rows": (c["samplers.mcmc_sample_array:rows"], "count"),
        "samplers.steps_per_s": (per(steps, glauber_s), "1/s"),
        "samplers.bytes_computed": (c["samplers.mcmc_sample_array:bytes"], "B"),
        "samplers.enumerate_s": (enum_s, "s"),
        "samplers.functions": (functions, "count"),
        "samplers.functions_per_s": (per(functions, enum_s), "1/s"),
        "heights.phase_s": (phase_s, "s"),
        "heights.phase_calls": (phase_calls, "count"),
        "heights.phase_us": (per(phase_s, phase_calls) * 1e6, "us"),
        "treedp.build_s": (t["treedp.tree_dp"], "s"),
        "treedp.query_s": (sum(t[k] for k in QUERIES), "s"),
        "treedp.query_calls": (outer_queries, "count"),
        "treedp.sample_s": (t["treedp.tree_sample"], "s"),
        "transform.verify_s": (sum((v for k, v in t.items() if k.startswith("transform.")), 0.0), "s"),
        "transform.omega": (op_counters.get("transform.omega", 0), "count"),
        "transform.checks": (op_counters.get("transform.checks", 0), "count"),
        "experiments.self_s": (t["experiments.run_experiment"], "s"),
        "experiments.rows": (c["experiments.run_experiment:rows"], "count"),
        "cli.self_s": (t["cli.main"], "s"),
        "trace.spans": (len(spans), "count"),
        "trace.report_s": (report_s, "s"),
    }
