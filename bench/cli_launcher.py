"""Run ``levygrowth.cli.main`` as the ``levygrowth`` console script does.

Usage: python bench/cli_launcher.py <levygrowth arguments...>

When LEVYBENCH_TRACE names a file, the benchmark's tracer is installed
before ``main`` runs, and the spans, the start-up time (from
LEVYBENCH_SPAWN, the parent's wall clock at spawn) and the time spent in
``main`` are written to that file as JSON at exit.
"""

import json
import os
import sys
import time

TRACE_PATH = os.environ.get("LEVYBENCH_TRACE")

if TRACE_PATH:
    from tracer import Tracer, install

import levygrowth.cli  # noqa: E402


def run(argv):
    try:
        return levygrowth.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --help/--version
        return exc.code if isinstance(exc.code, int) else 1


if __name__ == "__main__":
    argv = sys.argv[1:]
    if not TRACE_PATH:
        sys.exit(run(argv))
    tracer = Tracer()
    install(tracer)
    start = time.time()
    code = run(argv)
    end = time.time()
    record = {
        "command": argv[0] if argv else "",
        "startup_ms": (start - float(os.environ["LEVYBENCH_SPAWN"])) * 1e3,
        "main_ms": (end - start) * 1e3,
        **tracer.snapshot(),
    }
    with open(TRACE_PATH, "w") as fh:
        json.dump(record, fh)
    sys.exit(code)
