#!/usr/bin/env python3
"""axdse-bench entry point.

Run one workload (builds the benchmark binary from ../src on first use):

    python3 axdse-bench/run.py --workload explore-kernel-bound --seed 1 \
        --seconds 12 --trace 0

The last line of standard output is the result JSON; build output goes to
standard error. Run every workload briefly and check the output schema
against BENCHMARK.json (the benchmark's own test):

    python3 axdse-bench/run.py --smoke

The build lives in $CARGO_TARGET_DIR (default .bench_build) under the
repository root, next to the run's scratch directories.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "axdse-bench")
BINARY = os.path.join(BUILD_DIR, "axdse-bench")
OUT_DIR = os.path.join(BUILD_ROOT, "axdse-bench-out")


def build():
    """Configures (once) and builds the binary; build logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "axdse-bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("axdse-bench: build failed: " + " ".join(step))


def commit():
    """The git commit, or a digest of src/ outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def bench_args(workload, seed, seconds, trace, smoke=False):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out", OUT_DIR, "--commit", commit()]
    return args + (["--smoke"] if smoke else [])


def check_result(line, declared):
    """Returns a list of schema problems of one result line."""
    try:
        result = json.loads(line)
    except ValueError as error:
        return ["last line is not JSON: %s" % error]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("keys are %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("correct is %r" % result["correct"])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result["attempted"])
    if not isinstance(result["failed"], int) or result["failed"] != 0:
        problems.append("failed is %r" % result["failed"])
    metrics = result["metrics"]
    names = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(names):
        problems.append("missing %s, unexpected %s" % (
            sorted(set(names) - set(metrics)), sorted(set(metrics) - set(names))))
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r" % (name, value))
        if name in names and metric.get("unit") != names[name]:
            problems.append("%s unit %r, declared %r" % (
                name, metric.get("unit"), names[name]))
    return problems


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = 0
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            run = subprocess.run(
                bench_args(workload["name"], 1, 1, trace, smoke=True),
                capture_output=True, text=True, timeout=600)
            lines = run.stdout.strip().splitlines()
            problems = [] if run.returncode == 0 else [
                "exit %d: %s" % (run.returncode, run.stderr.strip()[-400:])]
            problems += check_result(lines[-1] if lines else "", declared)
            status = "ok" if not problems else "FAIL"
            print("%-22s trace=%d %s" % (workload["name"], trace, status))
            for problem in problems:
                print("    " + problem)
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the schema")
    args = parser.parse_args()
    build()
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    sys.stdout.flush()
    return subprocess.run(
        bench_args(args.workload, args.seed, args.seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
