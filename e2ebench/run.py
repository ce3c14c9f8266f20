#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload suite --seed 1 --seconds 15 --trace 0

The library and the driver are compiled with CMake into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); build
output goes to standard error, so the last line of standard output is
the driver's JSON result. Exits nonzero, without a result, when the
build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-G", "Unix Makefiles", "-S", HERE,
                      "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite", "farm", "verify", "served"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.join(target, "e2ebench"))
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)

    command = [os.path.join(build_dir, "e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    proc = subprocess.Popen(command)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("e2ebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
