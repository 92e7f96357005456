"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout: the program is imported from the
checkout's ``src`` directory, never from an installed copy.  The workload runs
in its own worker process, with BLAS/OpenMP pools capped at the CPU count.
Untraced runs print the end-to-end metrics; set-up is repeated in
SETUP_PROBES extra fresh processes and ``setup_s`` is the median of all
set-ups.  Traced runs print the per-layer metrics.  The last line of output
is one JSON object: correct, attempted, failed and metrics.  A record of the
run is left in bench/out/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from common import WORKLOADS  # noqa: E402

SETUP_PROBES = 2
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def worker_env():
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def run_worker(args, workdir, setup_only, timeout):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
        "--spawn-time", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # A session of its own, so a timeout also ends the worker's CLI children.
    proc = subprocess.Popen(
        cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker for {args.workload} ran past {timeout} s")
    finally:  # also on SIGTERM (see main) and interrupts
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))
    if not os.path.isfile(os.path.join(SRC, "levygrowth", "__init__.py")):
        sys.exit(f"no levygrowth sources under {SRC}")

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    setups = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            probe = run_worker(args, os.path.join(run_dir, f"probe{k}"), True, SETUP_TIMEOUT_S)
            setups.append(probe["setup_s"])
            shutil.rmtree(os.path.join(run_dir, f"probe{k}"), ignore_errors=True)
    workdir = os.path.join(run_dir, "work")
    res = run_worker(args, workdir, False, RUN_TIMEOUT_S)
    shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])
    res["setup_probes_s"] = setups

    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump({"args": vars(args), **res}, fh, indent=1)
    for line in res["problems"]:
        print("CHECK FAILED:", line)
    summary = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
