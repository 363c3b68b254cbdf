"""One workload process: import the library, write the inputs, run passes.

Started by run.py with the thread count of numeric libraries pinned to one.
It prints ``ready`` once the library is imported and the inputs are
written (run.py times set-up up to that line), then the factor that
scales a time to the reference host speed (hostspeed.py), from ticks run
right after set-up, then, unless ``--setup-only``, one JSON line with the
passes' timings, hashes, check results and per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_pass(ops, tracer=None, probe=None) -> list[dict]:
    """Run each operation once.  With a running hostspeed.Probe, the
    probe's ticks inside an operation are taken out of its time."""
    out = []
    for op in ops:
        spent = probe.spent if probe else 0.0
        t0 = time.perf_counter()
        try:
            value = tracer.span("op:" + op.name, op.run) if tracer else op.run()
            error = None
        except (Exception, SystemExit) as exc:  # an operation's failure is a result
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0 - ((probe.spent - spent) if probe else 0.0)
        # hash now: the next pass overwrites the operation's output files
        sha1 = None if error else hashlib.sha1(op.output(value)).hexdigest()
        out.append({"seconds": seconds, "value": value, "error": error, "sha1": sha1})
    return out


def summarize(ops, passes, known: dict) -> tuple[list[dict], bool]:
    """Per operation: status, sha1, failure reason.  Checks the first pass's
    outputs and compares every later pass's bytes with the first.  The
    checks read the files the last pass left, which hold the same bytes."""
    correct = True
    summary = []
    for i, op in enumerate(ops):
        runs = [p[i] for p in passes]
        rec = {
            "op": op.name,
            "median_s": statistics.median(r["seconds"] for r in runs),
            "sha1": None,
            "error": None,
        }
        errors = {r["error"] for r in runs}
        if errors != {None}:
            rec["error"] = sorted(e or "" for e in errors)[-1]
            prefix, note = known.get(op.name, (None, None))
            rec["known"] = prefix is not None and all(e and e.startswith(prefix) for e in errors)
            if rec["known"]:
                rec["note"] = note
            correct = correct and rec["known"]
            summary.append(rec)
            continue
        hashes = {r["sha1"] for r in runs}
        if len(hashes) > 1:
            rec["error"] = f"output bytes differ between passes: {sorted(hashes)}"
            correct = False
        else:
            rec["sha1"] = hashes.pop()
            try:
                op.check(runs[0]["value"])
            except Exception as exc:  # a failed or crashing check fails the operation
                rec["error"] = f"check failed: {type(exc).__name__}: {exc}"
                correct = False
        if op.name in known:
            rec["note"] = "expected to fail at this size, but passed"
        summary.append(rec)
    return summary, correct


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--src", required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path[:0] = [args.src, HERE]
    import liphom  # noqa: F401  (imports every module the tracer wraps)
    import liphom.cli

    if not os.path.abspath(liphom.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"liphom imported from {liphom.__file__}, not from {args.src}")
    from workloads import KNOWN_FAILURES, WORKLOADS

    os.makedirs(args.dir, exist_ok=True)
    os.chdir(args.dir)
    ops = WORKLOADS[args.workload](args.size, args.seed)
    print("ready", flush=True)
    from hostspeed import REFERENCE_TICK_S, Probe, mean_tick

    print(REFERENCE_TICK_S / mean_tick(), flush=True)
    if args.setup_only:
        return 0

    from tracing import Tracer, layer_metrics

    # Untraced passes until the next would end past --seconds; at least two,
    # so every output is compared across two passes.  With --trace 1,
    # untraced and traced passes alternate, at least one of each.  Untraced
    # passes run under the host speed probe, traced ones do not.
    kinds = ["plain", "traced"] if args.trace else ["plain"]
    passes: dict[str, list] = {k: [] for k in kinds}
    ticks = []
    traces = []
    start = time.perf_counter()
    while True:
        kind = kinds[sum(map(len, passes.values())) % len(kinds)]
        tracer = Tracer() if kind == "traced" else None
        probe = None if tracer else Probe()
        if tracer:
            tracer.install()
        else:
            probe.start()
        try:
            result = run_pass(ops, tracer, probe)
        finally:
            if tracer:
                tracer.uninstall()
            else:
                ticks.append(probe.stop())
        passes[kind].append(result)
        if tracer:
            traces.append(tracer)
        elapsed = time.perf_counter() - start
        done = sum(map(len, passes.values()))
        typical = statistics.median(sum(r["seconds"] for r in p) for ps in passes.values() for p in ps)
        if done >= 2 and all(passes.values()) and elapsed + typical > args.seconds:
            break

    def report_s(p):
        return sum(r["seconds"] for r in p)

    known = KNOWN_FAILURES.get(args.workload, {}) if args.size == "full" else {}
    all_passes = passes["plain"] + passes.get("traced", [])
    summary, correct = summarize(ops, all_passes, known)
    out = {
        "ops": summary,
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(1 for s in summary if s["error"]),
        "plain_report_s": [report_s(p) for p in passes["plain"]],
        "plain_tick_s": ticks,
        # each pass's wall time (ticks excluded) at the reference host speed
        "ref_report_s": [
            report_s(p) * REFERENCE_TICK_S / tick for p, tick in zip(passes["plain"], ticks)
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "liphom_numba": liphom._kernels.NUMBA_ENABLED,
    }
    if args.trace:
        totals = [report_s(p) for p in passes["traced"]]
        mid = sorted(range(len(totals)), key=totals.__getitem__)[(len(totals) - 1) // 2]
        op_counters = {}
        for op, r in zip(ops, passes["traced"][mid]):
            if r["error"] is None:
                op_counters.update(op.counters(r["value"]))
        metrics = layer_metrics(traces[mid].spans, traces[mid].counts, op_counters, totals[mid])
        untraced = statistics.median(out["plain_report_s"])
        metrics["trace.untraced_report_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (statistics.median(totals) - untraced, "s")
        metrics["host.tick_us"] = (statistics.median(ticks) * 1e6, "us")
        out["layers"] = metrics
        with open("spans.jsonl", "w") as fh:
            for i, tr in enumerate(traces):
                for s in tr.spans:
                    fh.write(json.dumps([i, *s]) + "\n")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
