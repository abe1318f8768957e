#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload batch_knn --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It configures and builds perfbench/
(which builds the sg_* libraries from src/ with the tier-1 flags) under
.bench_build/, runs the benchmark's own tests, then runs one workload. The
last line of stdout is the result JSON: with --trace 0 it carries every
end_to_end metric of BENCHMARK.json, with --trace 1 every per_layer metric.
A wrong answer, a failed build or test, or a missing metric exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def check(cmd, timeout=None):
    """Runs cmd with its output on stderr; exits on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        sys.exit(1)
    if done.returncode != 0:
        log("failed (exit %d): %s" % (done.returncode, " ".join(cmd)))
        sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no sgtree sources under %s/src: run from a repository checkout"
            % ROOT)
        sys.exit(1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        check(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
               BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    check(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
           "perfbench_tests", "-j", str(os.cpu_count() or 1)])
    check([os.path.join(BUILD_DIR, "perfbench_tests"), "--gtest_brief=1"],
          timeout=120)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK_DIR]
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.splitlines()
    if lines:
        print("\n".join(lines[:-1]))
    log("run took %.1f s, exit %d" % (time.monotonic() - start,
                                       done.returncode))
    if not lines:
        log("the benchmark printed nothing")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        log("the last line is not the result JSON")
        return 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        log("metrics differ from BENCHMARK.json %s: missing %s, extra %s"
            % (section, sorted(set(expected) - set(got)),
               sorted(set(got) - set(expected))))
        done.returncode = done.returncode or 1
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
