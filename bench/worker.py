"""One workload in one process: set-up, timed rounds, checks, metrics.

Started by run.py; prints one JSON object as its last line of output.

A workload is a module in ``workloads/`` defining ``Workload(seed, workdir)``,
whose constructor is the set-up, with ``known_faults`` (names of operations
that fail every run because of a known program fault), ``ops(i)`` (the
round's operations as (name, callable) pairs, inputs drawn from the seed and
the round index) and ``check(i, outputs)`` (failure messages by operation).

The timed phase runs whole rounds until the next round would end past
``--seconds`` (at least MIN_ROUNDS rounds).  Each operation is timed on its
own; a round's time is the sum of its operations.  Checks run after each
round, outside the timed phase and with tracing paused.

Before set-up the worker allocates and frees one 16 MiB block.  glibc raises
its mmap threshold to the size of the largest mmapped block freed so far, so
without this the timed loop switches partway through a run from page-faulting
mmap allocations to heap reuse, at whatever point the checks first free a
large array (mesh-ensemble rounds drop from about 3.3 s to 2.3 s).  The block
puts every run in the second, steady state from the start, the state any
long-lived process reaches after its first large free.
"""

import argparse
import contextlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback

from common import PER_LAYER

MIN_ROUNDS = 2


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Peak resident set of this process or of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def settle_allocator():
    import numpy as np

    block = np.empty(16 << 20, dtype=np.uint8)
    del block


def run_round(workload, i, op_ms):
    """Run round i; returns (round seconds, ops attempted, outputs, failures by op)."""
    outputs, failures = {}, {}
    total = 0.0
    ops = workload.ops(i)
    for name, fn in ops:
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # an operation that raises has failed; keep going
            failures[name] = [traceback.format_exc(limit=3)]
            result = None
        elapsed = time.perf_counter() - start
        total += elapsed
        op_ms.append((name, elapsed * 1e3))
        if name not in failures:
            outputs[name] = result
    return total, len(ops), outputs, failures


def per_layer(tracer, workload, rounds, cpu_s):
    snap = tracer.snapshot()
    totals = dict(snap["counters"])
    for name, ms in snap["self_ms"].items():
        totals[f"{name}.self_ms"] = ms
    for name, n in snap["calls"].items():
        totals[f"{name}.calls"] = n
    startups = []
    for rec in getattr(workload, "trace_records", ()):
        startups.append(rec["startup_ms"])
        key = "cli.%s.ms" % rec["command"].replace("-", "_")
        totals[key] = totals.get(key, 0.0) + rec["main_ms"]
        for name, ms in rec["self_ms"].items():
            totals[f"{name}.self_ms"] = totals.get(f"{name}.self_ms", 0.0) + ms
        for name, n in rec["calls"].items():
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + n
        for name, n in rec["counters"].items():
            totals[name] = totals.get(name, 0) + n
    totals["proc.cpu_s"] = cpu_s
    out = {}
    for name, unit in PER_LAYER:
        if name == "cli.startup_ms":
            value = statistics.fmean(startups) if startups else 0.0
        else:
            value = totals.get(name, 0) / rounds
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    settle_allocator()
    module = importlib.import_module("workloads." + args.workload.replace("-", "_"))
    workload = module.Workload(args.seed, args.workdir)
    setup_s = time.time() - args.spawn_time
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        workload.tracing = True

    round_s, op_ms, problems = [], [], []
    attempted = failed = 0
    correct = True
    cpu0 = cpu_seconds()
    phase_start = time.perf_counter()
    i = 0
    while True:
        seconds, n_ops, outputs, failures = run_round(workload, i, op_ms)
        round_s.append(seconds)
        with tracer.paused() if tracer else contextlib.nullcontext():
            verdicts = workload.check(i, outputs)
        for name, msgs in verdicts.items():
            if msgs:
                failures.setdefault(name, []).extend(msgs)
        attempted += n_ops
        for name, msgs in failures.items():
            failed += 1
            if name not in workload.known_faults:
                correct = False
                problems.append(f"round {i} {name}: " + " | ".join(msgs))
        i += 1
        elapsed = time.perf_counter() - phase_start
        if i >= MIN_ROUNDS and elapsed + round_s[-1] > args.seconds:
            break
    cpu_s = cpu_seconds() - cpu0

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "rounds": i,
        "round_s": round_s,
        "problems": problems,
        "setup_s": setup_s,
        "wall_s": statistics.median(round_s),
        "op_p50_ms": statistics.median(ms for _, ms in op_ms),
        "op_ms": op_ms,
        "peak_rss_mb": peak_rss_mb(),
        "cpu_s_per_round": cpu_s / i,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, workload, i, cpu_s)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
