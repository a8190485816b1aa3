#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric by name and
unit, with its median, quartiles and spread (quartile distance over median).

    python3 perfbench/report.py                       # every workload, seed 1
    python3 perfbench/report.py --seeds 1-10 --workloads hurwitz_sweep
    python3 perfbench/report.py --trace 1             # per-layer metrics

Each run is a fresh ``run.py`` process.  A summary is also written to
perfbench/out/report-trace<N>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=[1], help="e.g. 7 or 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, seeds {args.seeds[0]}..{args.seeds[-1]}, "
              f"ops per run {[r['attempted'] for r in runs]}, "
              f"fail_frac {failed / attempted:.4f}, all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':34s} {'unit':9s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
        rows = {}
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": rel, "values": values}
            print(f"  {m['name']:34s} {m['unit']:9s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:7.3f}")
        summary[workload] = {"seeds": args.seeds, "fail_frac": failed / attempted, "metrics": rows}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"report-trace{args.trace}.json").write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
