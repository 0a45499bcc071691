#!/usr/bin/env python3
"""Build and run the logseek benchmark (perfbench) on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig11 --seed 42 --seconds 10 --trace 0

Builds perfbench/CMakeLists.txt (Release) into .bench_build, runs the
binary, passes its output through and exits with its status. The last
stdout line is one JSON object with the keys correct, attempted,
failed and metrics. --record-digests rewrites perfbench/digests.txt
from this run's validated results instead of checking against it.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.txt")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the perfbench target; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("logseek sources (src/) not found next to perfbench/")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig11", "hot-reread", "write-churn"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    cmd += ["--write-digests" if args.record_digests else "--digests",
            DIGESTS]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    if not lines:
        log("perfbench printed nothing (exit %d)" % proc.returncode)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("last line is not a result object: " + lines[-1])
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
