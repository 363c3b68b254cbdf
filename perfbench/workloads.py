"""Workload definitions: input files, operations and output checks.

Each workload is a list of operations.  An operation is one call into the
program (``liphom.cli.main`` or, for the tree DP queries, the public
``liphom.treedp`` API).  Its output bytes are hashed, and the first pass's
output is checked by code in this file that does not use the library: graph
balls, family sizes and tree edges are recomputed here from the benchmark's
own graphs.

Graph instances are fixed per workload (built by ``random_regular`` from a
constant stream), and ``--seed`` drives the program's random streams: the
MCMC seed, the tree sampler seed and the config seed.  The work of these
workloads depends strongly on the graph instance: over eight graph seeds,
``spectral_lambda`` on a random 8-regular n=4096 graph took 0.2-3.6 s, the
n=14 family held 84k-101k functions, and ``gen_random_bipartite_regular``
at classes of 2048 and d=8 took 0.8-7.3 s.  A fixed instance keeps a run's
work the same for every seed, so runs with different seeds compare.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

COLUMNS = "vertex,t,estimate,exact,bound,ball_size,n_samples,seed,config_hash,note"
NOT_MET = "hypotheses-not-met"

# Expected failures at full size, by operation name: (error text prefix, note).
KNOWN_FAILURES = {
    "tree-exact": {
        "tree-report": (
            "ValueError: Exceeds the limit (4300 digits) for integer string conversion",
            "experiments._fmt_fraction formats exact tail probabilities of the h=15 "
            "tree in decimal, past Python's int->str digit limit. The change that "
            "fixes it lowers `failed` by one and adds the report's real cost to "
            "report_s on tree-exact.",
        )
    }
}


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Op:
    """One operation: ``run`` is timed; ``output`` returns its bytes;
    ``check`` raises CheckFailed on a wrong output; ``counters`` reads
    per-layer counts from the output."""

    name: str
    run: Callable[[], object]
    output: Callable[[object], bytes]
    check: Callable[[object], None]
    counters: Callable[[object], dict] = field(default=lambda value: {})


# ---------------------------------------------------------------------------
# Inputs built without the library
# ---------------------------------------------------------------------------


def random_regular(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected simple d-regular graph: random point pairing that re-draws
    a pair forming a loop or repeated edge and restarts when stuck."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        edges: set[tuple[int, int]] = set()
        misses = 0
        while points and misses < 100:
            i, j = rng.randrange(len(points)), rng.randrange(len(points))
            u, v = points[i], points[j]
            e = (min(u, v), max(u, v))
            if u == v or e in edges:
                misses += 1
                continue
            edges.add(e)
            misses = 0
            for k in sorted((i, j), reverse=True):
                points[k] = points[-1]
                points.pop()
        if not points and len(bfs_dist(adjacency(n, edges), 0)) == n:
            return sorted(edges)


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_dist(adj, src: int, limit: int | None = None) -> dict[int, int]:
    dist = {src: 0}
    frontier = [src]
    while frontier and (limit is None or dist[frontier[0]] < limit):
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def graph_text(n: int, edges, n0: int | None = None) -> str:
    lines = [f"{n} {len(edges)}"]
    if n0 is not None:
        lines.append(f"bipartite {n0}")
    lines += [f"{u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> tuple[int, list[tuple[int, int]], int | None]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n, m = map(int, lines[0].split())
    n0 = None
    if lines[1].startswith("bipartite"):
        n0 = int(lines[1].split()[1])
        lines = lines[1:]
    edges = [tuple(map(int, ln.split())) for ln in lines[1:]]
    require(len(edges) == m, f"graph declares {m} edges, has {len(edges)}")
    return n, edges, n0


def count_lipschitz(adj, v0: int) -> int:
    """Number of integer functions with f(v0) = 0 and |f(u) - f(w)| <= 1 on
    every edge, by backtracking in BFS order."""
    dist = bfs_dist(adj, v0)
    order = sorted(dist, key=lambda v: (dist[v], v))
    earlier = [[w for w in adj[v] if order.index(w) < i] for i, v in enumerate(order)]
    vals = {v0: 0}

    def rec(i: int) -> int:
        if i == len(order):
            return 1
        v = order[i]
        lo = max(vals[w] - 1 for w in earlier[i])
        hi = min(vals[w] + 1 for w in earlier[i])
        total = 0
        for x in range(lo, hi + 1):
            vals[v] = x
            total += rec(i + 1)
        return total

    return rec(1)


def tree_edges(d: int, h: int) -> tuple[int, list[tuple[int, int]], list[int]]:
    """Complete tree, root degree d, other internal degree d, numbered
    breadth-first: (n, edges, first vertex of each level)."""
    starts = [0, 1]
    for j in range(1, h + 1):
        starts.append(starts[-1] + d * (d - 1) ** (j - 1))
    edges = []
    for j in range(h):
        kids = d if j == 0 else d - 1
        for i, v in enumerate(range(starts[j], starts[j + 1])):
            edges += [(v, starts[j + 1] + i * kids + c) for c in range(kids)]
    return starts[h + 1], edges, starts[: h + 1]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def report_bytes(path: str) -> bytes:
    return read(path) + b"\0" + read(path + ".config")


def report_rows(path: str) -> list[dict]:
    text = read(path).decode()
    require(text.startswith(COLUMNS + "\n"), "report header")
    return list(csv.DictReader(io.StringIO(text)))


def check_tails(rows, targets, t_max: int, key: Callable[[dict], float]) -> None:
    """Row count, (vertex, t) grid, and tails in [0, 1] not increasing in t."""
    require(len(rows) == len(targets) * t_max, f"{len(rows)} rows, expected {len(targets) * t_max}")
    grid = sorted((int(r["vertex"]), int(r["t"])) for r in rows)
    require(grid == [(v, t) for v in sorted(targets) for t in range(1, t_max + 1)], "row grid")
    by_v: dict[int, list[float]] = {}
    for r in sorted(rows, key=lambda r: (int(r["vertex"]), int(r["t"]))):
        by_v.setdefault(int(r["vertex"]), []).append(key(r))
    for v, tail in by_v.items():
        require(all(0.0 <= p <= 1.0 for p in tail), f"tail of vertex {v} outside [0,1]")
        require(all(a >= b for a, b in zip(tail, tail[1:])), f"tail of vertex {v} increases in t")


def check_deviation(path, *, targets, t_max, adj, n_samples, seed) -> None:
    rows = report_rows(path)
    check_tails(rows, targets, t_max, lambda r: float(r["estimate"]))
    for r in rows:
        v, t = int(r["vertex"]), int(r["t"])
        require(int(r["n_samples"]) == n_samples, f"n_samples {r['n_samples']} != {n_samples}")
        require(int(r["seed"]) == seed, "seed column")
        require(r["bound"] == NOT_MET or 0.0 <= float(r["bound"]) <= 1.0, "bound column")
        require(int(r["ball_size"]) == len(bfs_dist(adj, v, t)), f"ball size at ({v},{t})")
        if r["exact"]:
            p, q = map(int, r["exact"].split("/"))
            require(p / q == float(r["estimate"]), f"exact {r['exact']} != estimate")


def digits_le(a: str, b: str) -> bool:
    """a <= b for non-negative decimal digit strings of any length."""
    return (len(a), a) <= (len(b), b)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

SIZES = {
    "full": {
        "lip": dict(n=4096, d=8, burnin=10_000, thin=10, samples=2000, targets=(1, 17, 333), t_max=5),
        "hom": dict(n=2048, d=8, burnin=600_000, thin=2000, samples=100, targets=(1, 17, 333), t_max=5),
        "exact": dict(n=14, t_max=3, vt_n=12),
        "tree": dict(sample_h=14, samples=4, dp_h=15, t_max=3),
    },
    "tiny": {
        "lip": dict(n=64, d=8, burnin=200, thin=2, samples=20, targets=(1, 17, 33), t_max=3),
        "hom": dict(n=32, d=4, burnin=400, thin=4, samples=10, targets=(1, 17, 33), t_max=3),
        "exact": dict(n=8, t_max=2, vt_n=8),
        "tree": dict(sample_h=4, samples=2, dp_h=5, t_max=2),
    },
}


def cli_op(name: str, argv: list[str], output, check, counters=None) -> Op:
    def run():
        import liphom.cli

        rc = liphom.cli.main(argv)
        require(rc == 0, f"exit code {rc}")

    return Op(name, run, lambda _: output(), lambda _: check(), counters or (lambda _: {}))


def write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def config(**kv) -> str:
    return "".join(f"{k} = {v}\n" for k, v in kv.items())


def lip_flatness(size: str, seed: int) -> list[Op]:
    p = SIZES[size]["lip"]
    edges = random_regular(p["n"], p["d"], random.Random("lip-flatness/graph"))
    adj = adjacency(p["n"], edges)
    write("graph.txt", graph_text(p["n"], edges))
    targets = p["targets"]
    write(
        "lip.cfg",
        config(
            kind="deviation", graph_type="file", graph_path="graph.txt", mode="lipschitz", M=1,
            targets=",".join(map(str, targets)), t_max=p["t_max"], sampler="mcmc",
            burnin=p["burnin"], thin=p["thin"], n_samples=p["samples"], seed=seed,
        ),
    )
    return [
        cli_op(
            "experiment",
            ["experiment", "lip.cfg", "--out", "lip.csv"],
            lambda: report_bytes("lip.csv"),
            lambda: check_deviation(
                "lip.csv", targets=targets, t_max=p["t_max"], adj=adj,
                n_samples=p["samples"], seed=seed,
            ),
        )
    ]


def hom_sweep(size: str, seed: int) -> list[Op]:
    p = SIZES[size]["hom"]
    n, d = p["n"], p["d"]
    targets = p["targets"]
    write(
        "hom.cfg",
        config(
            kind="deviation", graph_type="file", graph_path="bip.txt", mode="hom",
            targets=",".join(map(str, targets)), t_max=p["t_max"], sampler="mcmc",
            burnin=p["burnin"], thin=p["thin"], n_samples=p["samples"], seed=seed,
        ),
    )

    def check_gen():
        n2, edges, n0 = parse_graph(read("bip.txt").decode())
        require((n2, n0) == (2 * n, n), "bipartite graph size")
        require(len(set(edges)) == len(edges) == n * d, "bipartite edge count")
        require(all(u < n <= v for u, v in edges), "edge inside a class")
        require(np.all(np.bincount(np.array(edges).ravel(), minlength=2 * n) == d), "degrees")

    def check_experiment():
        n2, edges, _ = parse_graph(read("bip.txt").decode())
        check_deviation(
            "hom.csv", targets=targets, t_max=p["t_max"], adj=adjacency(n2, edges),
            n_samples=p["samples"], seed=seed,
        )

    # The graph seed is fixed: the generator's restart count, and so its
    # time, is geometric in the seed (see the module docstring).
    return [
        cli_op(
            "gen-bipartite",
            ["gen", "--type", "bipartite", "--n", str(n), "--d", str(d), "--seed", "0", "--out", "bip.txt"],
            lambda: read("bip.txt"),
            check_gen,
        ),
        cli_op(
            "experiment",
            ["experiment", "hom.cfg", "--out", "hom.csv"],
            lambda: report_bytes("hom.csv"),
            check_experiment,
        ),
    ]


def exact_family(size: str, seed: int) -> list[Op]:
    p = SIZES[size]["exact"]
    rng = random.Random("exact-family/graph")
    n, vt_n = p["n"], p["vt_n"]
    edges, vt_edges = random_regular(n, 3, rng), random_regular(vt_n, 3, rng)
    adj, vt_adj = adjacency(n, edges), adjacency(vt_n, vt_edges)
    write("exact-graph.txt", graph_text(n, edges))
    write("vt-graph.txt", graph_text(vt_n, vt_edges))
    write(
        "exact.cfg",
        config(
            kind="deviation", graph_type="file", graph_path="exact-graph.txt", mode="lipschitz",
            M=1, targets="all", t_max=p["t_max"], sampler="exact", seed=seed,
        ),
    )

    def check_verify():
        rep = json.loads(read("vt.json"))
        require(rep["all_passed"] is True, "verify-transform all_passed")
        require((rep["v"], rep["t"]) == (1, 1), "verify-transform v, t")
        require(rep["family_size"] == count_lipschitz(vt_adj, 0), "verify-transform family size")

    def verify_counters(_):
        rep = json.loads(read("vt.json"))
        return {
            "transform.omega": rep["omega_size"],
            "transform.checks": sum(c["checked"] for c in rep["checks"].values()),
        }

    return [
        cli_op(
            "experiment",
            ["experiment", "exact.cfg", "--out", "exact.csv"],
            lambda: report_bytes("exact.csv"),
            lambda: check_deviation(
                "exact.csv", targets=range(n), t_max=p["t_max"], adj=adj,
                n_samples=count_lipschitz(adj, 0), seed=seed,
            ),
        ),
        cli_op(
            "verify-transform",
            ["verify-transform", "vt-graph.txt", "--mode", "lipschitz", "--M", "1",
             "--v", "1", "--t", "1", "--lam-source", "exhaustive", "--out", "vt.json"],
            lambda: read("vt.json"),
            check_verify,
            verify_counters,
        ),
    ]


def tree_exact(size: str, seed: int) -> list[Op]:
    p = SIZES[size]["tree"]
    d, sh, h, t_max = 3, p["sample_h"], p["dp_h"], p["t_max"]
    level_starts = tree_edges(d, h)[2]
    write(
        "tree.cfg",
        config(
            kind="tree", d=d, h=h, M=1, targets=",".join(map(str, level_starts)),
            t_max=t_max, seed=seed,
        ),
    )

    def check_samples():
        lines = read("tree.txt").decode().splitlines()
        require(lines[0].startswith("# sample sampler=tree"), "sample header")
        require(len(lines) == 1 + p["samples"], "sample count")
        n, edges, starts = tree_edges(d, sh)
        f = np.array([list(map(int, ln.split())) for ln in lines[1:]], dtype=np.int64)
        require(f.shape[1] == n, "sample length")
        e = np.array(edges)
        require(bool(np.all(np.abs(f[:, e[:, 0]] - f[:, e[:, 1]]) <= 1)), "sample not 1-Lipschitz")
        require(not f[:, starts[sh]:].any(), "sample nonzero on a leaf")

    def run_queries():
        import liphom.treedp

        dp = liphom.treedp.tree_dp(d, h, mode="lipschitz", M=1)
        return [
            (depth, thr, dp.tail_probability(depth, thr), dp.log_tail_probability(depth, thr))
            for depth in range(h + 1)
            for thr in range(t_max)
        ]

    def query_bytes(rows) -> bytes:
        # hex: decimal conversion of these integers exceeds Python's digit limit
        return "".join(
            f"{j} {k} {q.numerator:x} {q.denominator:x} {lq!r}\n" for j, k, q, lq in rows
        ).encode()

    def check_queries(rows):
        by_depth: dict[int, list[Fraction]] = {}
        for j, k, q, lq in rows:
            require(0 <= q <= 1, f"tail at depth {j} outside [0,1]")
            require((q == 0) == (lq == -math.inf), "log tail of a zero tail")
            if q > 0 and float(q) > 1e-300:
                require(math.isclose(math.exp(lq), float(q), rel_tol=1e-9), "log tail")
            by_depth.setdefault(j, []).append(q)
        require(len(by_depth) == h + 1, "query depths")
        for j, tail in by_depth.items():
            require(all(a >= b for a, b in zip(tail, tail[1:])), f"tail at depth {j} increases")
        require(not any(by_depth[h]), "nonzero tail at the leaves")

    def check_report():
        rows = report_rows("tree.csv")
        check_tails(rows, level_starts, t_max, lambda r: math.exp(float(r["estimate"])))
        _, edges, _ = tree_edges(d, h)
        adj = adjacency(level_starts[-1] + d * (d - 1) ** (h - 1), edges)
        for r in rows:
            num, den = r["exact"].split("/")
            require(digits_le(num, den), "exact tail above 1")
            v, t = int(r["vertex"]), int(r["t"])
            require(int(r["ball_size"]) == len(bfs_dist(adj, v, t)), f"ball size at ({v},{t})")

    return [
        cli_op(
            "sample-tree",
            ["sample", "--sampler", "tree", "--d", str(d), "--h", str(sh), "--M", "1",
             "--n-samples", str(p["samples"]), "--seed", str(seed), "--out", "tree.txt"],
            lambda: read("tree.txt"),
            check_samples,
        ),
        Op("treedp-queries", run_queries, query_bytes, check_queries),
        cli_op(
            "tree-report",
            ["experiment", "tree.cfg", "--out", "tree.csv"],
            lambda: report_bytes("tree.csv"),
            check_report,
        ),
    ]


WORKLOADS = {
    "lip-flatness": lip_flatness,
    "hom-sweep": hom_sweep,
    "exact-family": exact_family,
    "tree-exact": tree_exact,
}
