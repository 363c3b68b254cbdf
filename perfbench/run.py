"""liphom benchmark: four CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload lip-flatness --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): lip-flatness,
hom-sweep, exact-family, tree-exact.  Each runs in its own process
(perfbench/worker.py) with numeric libraries pinned to one thread, importing
liphom from ./src.

--trace 0 prints the end-to-end metrics:
  setup_s      median over several fresh processes of the time from process
               start until liphom is imported and the inputs are written, at
               the reference speed (scaled by ticks right after set-up);
  report_s     median time of one pass over the workload's operations, in
               seconds at the reference speed of hostspeed.py: each pass's
               wall time times REFERENCE_TICK_S / the pass's mean tick;
  peak_rss_mb  peak resident memory of the process that ran the passes.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the median traced pass (tracing.py), the tracing overhead
(median traced minus median untraced wall time) and the median tick.

An operation fails if it raises, exits nonzero, fails its check, or gives
different bytes on two passes; ``failed`` counts such operations.  A failure
listed in workloads.KNOWN_FAILURES with the expected text still counts as
failed, but leaves ``correct`` true.  With --seed equal to the seed in
reference.json, each operation's sha1 is compared with the recorded one and
any mismatch is flagged by name on the detail line (it is not a failure:
changes that alter behaviour on purpose change the hashes).

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it holds the environment, per-operation results and
identity flags.  Work files go to .perfbench/ under the repository root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("lip-flatness", "hom-sweep", "exact-family", "tree-exact")
SETUPS = 5  # fresh processes timed for setup_s, the last one runs the passes
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def source_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "liphom")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def environment() -> dict:
    return {
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "LIPHOM_NO_NUMBA": os.environ.get("LIPHOM_NO_NUMBA"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "src_lines": source_lines(),
    }


def start_worker(args, workdir: str, setup_only: bool, deadline: float):
    """Start a worker and wait for its ``ready`` line and the speed factor
    after it: (process, setup wall seconds, factor)."""
    env = dict(os.environ, **{k: "1" for k in THREAD_PINS})
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--src", SRC, "--dir", workdir,
    ] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    scale = proc.stdout.readline() if line.strip() == "ready" else ""
    if not scale.strip():
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    if setup_only:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    return proc, setup, float(scale)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke test")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "liphom", "__init__.py")):
        print(f"perfbench: no liphom sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + args.seconds + 120
    base = os.path.join(ROOT, ".perfbench", f"{args.workload}-s{args.seed}-t{args.trace}-{args.size}")
    shutil.rmtree(base, ignore_errors=True)
    setups, scales = [], []
    proc = None
    try:
        for i in range(1, SETUPS):
            _, s, scale = start_worker(args, os.path.join(base, f"setup{i}"), True, deadline)
            setups.append(s)
            scales.append(scale)
            shutil.rmtree(os.path.join(base, f"setup{i}"))
        proc, s, scale = start_worker(args, os.path.join(base, "main"), False, deadline)
        setups.append(s)
        scales.append(scale)
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])

    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    identity = {"reference_seed": ref["seed"], "checked": False, "mismatched": []}
    if args.seed == ref["seed"] and args.size == "full":
        identity["checked"] = True
        expected = ref["sha1"].get(args.workload, {})
        for rec in res["ops"]:
            if rec["sha1"] is not None and rec["sha1"] != expected.get(rec["op"]):
                identity["mismatched"].append(rec["op"])
    # each set-up's wall time at the reference host speed (hostspeed.py)
    setup_ref_s = [s * k for s, k in zip(setups, scales)]
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_ref_s), "unit": "s"},
            "report_s": {"value": statistics.median(res["ref_report_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "environment": dict(environment(), liphom_numba_enabled=res["liphom_numba"]),
        "setup_s": setup_ref_s,
        "setup_wall_s": setups,
        "setup_scale": scales,
        "report_s": res["ref_report_s"],
        "wall_s": res["plain_report_s"],
        "tick_s": res["plain_tick_s"],
        "ops": res["ops"],
        "identity": identity,
    }
    with open(os.path.join(base, "result.json"), "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    for name in identity["mismatched"]:
        print(f"perfbench: {args.workload}/{name}: sha1 differs from reference.json", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
