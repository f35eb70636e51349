"""Benchmark entry point: runs one frobkit workload and prints, as its last
line, one JSON object with correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in a child process (worker.py), so that setup_s is timed
from the start of the process that does the work: interpreter start-up,
importing frobkit, and building and loading the inputs, up to the first
timed call.  See README.md for the workloads and metrics."""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), repr(start)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"benchmark: {args.workload} ran past {CHILD_TIMEOUT_S} s")
    if proc.returncode:
        sys.exit(proc.returncode)
    print(proc.stdout.splitlines()[-1])


if __name__ == "__main__":
    main()
