#!/usr/bin/env python3
"""Run one benchmark workload against the purecycle source in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --profile 9:5,5,5,5
    python3 perfbench/run.py --self-test

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics instead.  A results file with provenance goes to
``perfbench/out/``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 21
perf = time.perf_counter


class Done:
    """One op of a run: its output (or exception) and its latency."""

    __slots__ = ("op", "out", "error", "seconds")

    def __init__(self, op, out, error, seconds):
        self.op, self.out, self.error, self.seconds = op, out, error, seconds


def run_op(workload, op):
    start = perf()
    try:
        out, error = workload.run(op), None
    except Exception as exc:  # an op that raises counts as failed
        out, error = None, exc
    return Done(op, out, error, perf() - start)


def execute(workload, ops):
    return [run_op(workload, op) for op in ops]


def timed_run(workload, blocks, seconds, tracer=None):
    """Run whole blocks until ``seconds`` have passed; a block is cut short
    only past twice that, to bound the run's wall time.  With a tracer, the
    even-numbered blocks run traced and the odd ones untraced.  Returns the
    ops done and, per block, the number of ops done in it."""
    done, sizes = [], []
    start = perf()
    for block in blocks:
        traced = tracer is not None and len(sizes) % 2 == 0
        if traced:
            tracer.install()
        sizes.append(0)
        try:
            for op in block:
                if traced:
                    tracer.op = len(done)
                done.append(run_op(workload, op))
                sizes[-1] += 1
                if perf() - start > 2 * seconds:
                    return done, sizes
        finally:
            if traced:
                tracer.uninstall()
        if perf() - start >= seconds:
            break
    return done, sizes


def failures(workload, done):
    out = []
    for d in done:
        if d.error is not None:
            problem = f"raised {type(d.error).__name__}: {d.error}"
        else:
            problem = workload.check(d.op, d.out)
        if problem:
            out.append(f"{d.op.kind} {d.op.args}: {problem}")
    return out


def setup_probes(n):
    """Seconds of purecycle's import and first calls in each of ``n`` fresh
    processes."""
    times = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(ROOT)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def block_stats(done, sizes):
    """(ops per busy second, median latency, 90th percentile latency) of
    each block."""
    out, pos = [], 0
    for n in sizes:
        lat = [d.seconds for d in done[pos:pos + n]]
        out.append((n / sum(lat), statistics.median(lat), statistics.quantiles(lat, n=10)[-1]))
        pos += n
    return out


def latency_metrics(done, sizes):
    """Every block has the same mix, so each block gives a sample of the
    throughput and of the latency percentiles; the run reports the median over
    blocks, which keeps a burst of load from other processes on the machine
    out of the figures."""
    rate, p50, p90 = (statistics.median(column) for column in zip(*block_stats(done, sizes)))
    return {
        "ops_per_s": rate,
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_metrics(tracer, done, sizes):
    """Per-layer figures of the traced blocks, and the tracing overhead as
    the untraced over the traced median block throughput."""
    rates = [stats[0] for stats in block_stats(done, sizes)]
    traced = statistics.median(rates[0::2])
    untraced = statistics.median(rates[1::2]) if len(rates) > 1 else traced
    metrics = tracer.metrics(sum(sizes[0::2]))
    metrics["trace.ops_per_s"] = traced
    metrics["trace.untraced_ops_per_s"] = untraced
    metrics["trace.overhead"] = untraced / traced
    return metrics


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args):
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def benchmark(args, workloads):
    from tracer import Tracer

    workload = workloads[args.workload]
    end_to_end, per_layer = declared_metrics()
    warmup, blocks = workload.streams(random.Random(f"{args.workload}:{args.seed}"))
    report = {}
    metrics = {}
    # setup_s is the median of probes made before the warm-up and after the
    # timed loop, so that it does not rest on one moment of a shared machine.
    probes = [] if args.trace else setup_probes(SETUP_PROBES // 2)
    execute(workload, warmup)
    tracer = Tracer() if args.trace else None
    done, sizes = timed_run(workload, blocks, args.seconds, tracer)
    if not args.trace:
        probes += setup_probes(SETUP_PROBES - len(probes))
        metrics["setup_s"] = statistics.median(probes)
    if tracer:
        metrics.update(trace_metrics(tracer, done, sizes))
        report["traced_ops"] = sum(sizes[0::2])
        report["spans"] = len(tracer.spans)
    else:
        metrics.update(latency_metrics(done, sizes))
    failed = failures(workload, done)
    units = per_layer if args.trace else end_to_end
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {sorted(missing)}")
    result = {
        "correct": not failed,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    kinds, busy = {}, {}
    for d in done:
        kinds[d.op.kind] = kinds.get(d.op.kind, 0) + 1
        busy[d.op.kind] = busy.get(d.op.kind, 0.0) + d.seconds
    report.update({
        "provenance": provenance(args),
        "blocks": len(sizes),
        "latency_samples": len(done),
        "warmup_ops": len(warmup),
        "setup_probes": 0 if args.trace else SETUP_PROBES,
        "ops_by_kind": kinds,
        "busy_s_by_kind": busy,
        "fail_frac": len(failed) / len(done),
        "failures": failed[:20],
        "result": result,
    })
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if tracer:
        tracer.write_spans(OUT / f"{stem}-spans.jsonl")
    print(f"{args.workload}: {len(done)} ops, {len(failed)} failed, "
          f"results in {OUT.relative_to(ROOT) / (stem + '.json')}", file=sys.stderr)
    print(json.dumps(result))


def profile(type_text):
    """Absolute per-call counters for one type: brute force, then braid orbits."""
    import purecycle.braid as B
    import purecycle.hurwitz as H
    from tracer import Tracer

    t = H.RamificationType.parse(type_text)
    calls = [("hurwitz_number_brute", lambda: H.hurwitz_number_brute(t))]
    if len(t.classes) == 4:
        calls.append(("braid_orbits", lambda: B.braid_orbits(t)))
    out = {"type": str(t)}
    for name, call in calls:
        tracer = Tracer()
        tracer.install()
        try:
            call()
        finally:
            tracer.uninstall()
        per_call = tracer.metrics(1)
        out[name] = {k: per_call[k] for k in (
            "perm.cycle_lengths.calls", "hurwitz.raw_tuples", "hurwitz.classes",
            "perm.conjugate.calls", "braid.q3.calls", "perm.all_of_type.elems",
            "perm.centralizer_elements.calls", "hurwitz.canonical_form.calls",
            "hurwitz.enumerate.calls", "hurwitz.enumerate.s", "hurwitz.enumerate.self_s",
            "braid.orbits.s", "braid.orbits.self_s", "hurwitz.canonical_form.s")}
    print(json.dumps(out, indent=2))


def self_test(workloads):
    """Each workload must pass its checks on a few ops, and must fail them
    when one expected value is wrong."""
    ok = True
    for name, workload in workloads.items():
        _, blocks = workload.streams(random.Random(f"{name}:self-test"))
        done = execute(workload, next(blocks)[:3])
        clean = failures(workload, done)
        first = done[0].op
        key = next(k for k, v in first.expected.items() if type(v) is int)
        done[0].op = dataclasses.replace(first, expected={**first.expected, key: first.expected[key] + 1})
        broken = failures(workload, done)
        passed = not clean and len(broken) == 1
        ok &= passed
        print(f"{name}: {'PASS' if passed else 'FAIL'} "
              f"(correct expectations: {len(clean)} of {len(done)} failed; "
              f"{key} off by one: fail_frac {len(broken) / len(done):.2f})")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", metavar="TYPE", help="trace one type, e.g. 9:5,5,5,5")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "purecycle" / "__init__.py").is_file():
        print(f"perfbench: no purecycle source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import purecycle

    if Path(purecycle.__file__).resolve().parent != SRC / "purecycle":
        print(f"perfbench: imported purecycle from {purecycle.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.self_test:
        return self_test(WORKLOADS)
    if args.profile:
        profile(args.profile)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    benchmark(args, WORKLOADS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
