#!/usr/bin/env python3
"""Builds and runs the engine benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (engine library from src/ plus the program)
into .bench_build/perfbench under the checkout root, then runs one workload.
Build output goes to stderr; the program's stdout is passed through, and its
last line is the JSON result. Exits non-zero, without a result, when the
engine sources are missing or the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "casper_engine.h")):
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    build_tree = os.path.join(BUILD_DIR, "build")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_tree, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_tree, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    if not build():
        return 2
    cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work-dir", BUILD_DIR]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
