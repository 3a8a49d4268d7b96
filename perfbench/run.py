#!/usr/bin/env python3
"""Builds the SOFYA benchmark from source and runs one workload.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload schema_local --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/; later calls rebuild incrementally. Build
output goes to stderr. The benchmark program's last stdout line is the
result object; with --trace 1 the traced run's spans are written to
.bench_build/spans/<workload>-seed<seed>.tsv. Exits non-zero, printing no
result, when the sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("schema_local", "serve_open", "churn_onthefly")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "sofya.h")):
        print("perfbench: no sofya sources under src/ - run from the root "
              "of a repository checkout", file=sys.stderr)
        return False
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "sofya_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    command = [os.path.join(BUILD, "sofya_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, "%s-seed%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
