#!/usr/bin/env python3
"""Build and run the fit() benchmark (fitbench).

    python3 fitbench/run.py --workload pixels_l3 --seed 1 --seconds 16 --trace 0

Run it from the repository root. The first call configures and builds the
library and the fitbench driver from source into .bench_build/fitbench;
later calls rebuild incrementally. The driver's report goes to stdout, and
its last line is the result object with the keys correct, attempted,
failed and metrics. With --out FILE the result is also appended to FILE as
one JSON line {"workload", "seed", "trace", "result"}, the input of
compare.py.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "fitbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("pixels_l3", "road_l1", "uniform_l2", "census_recover")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure once, then build incrementally; all output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "fitbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))


def main():
    ap = argparse.ArgumentParser(description="Build and run fitbench.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result to this JSON-lines file")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.SubprocessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "fitbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: fitbench ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"run.py: fitbench exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("run.py: fitbench printed no result object", file=sys.stderr)
        return 1
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "result": result}
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
