#!/usr/bin/env python3
"""Build and run the layered benchmark (see README.md beside this file).

    python3 imbench/run.py --workload caida|churn|attack --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The engine is compiled from the checkout's
src/ into .bench_build/imbench (or $CARGO_TARGET_DIR/imbench when that is
set) on first use; build output goes to stderr so that the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no result,
when the build or any correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest measured window, and the allowance for the wall time a run spends
# outside it (three set-ups, the accuracy runs, the traced extras: 15-30 s
# on the reference host, see README.md). Together they stay under the 180 s
# a run may take.
MAX_SECONDS = 60
OUTSIDE_WINDOW_S = 110


def fail(msg, code=1):
    print(f"imbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "imbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found beside the benchmark", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "imbench", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 2)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["caida", "churn", "attack"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        fail(f"--seed must be >= 0 and --seconds in [1, {MAX_SECONDS}]", 2)

    out = build_dir()
    build(out)
    cmd = [os.path.join(out, "imbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(out, f"spans-{args.workload}.tsv")]
    timeout_s = args.seconds + OUTSIDE_WINDOW_S
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout_s} s")
    sys.stdout.write(r.stdout)
    if r.returncode != 0:
        fail(f"benchmark exited with code {r.returncode}")
    try:
        result = json.loads(r.stdout.rstrip("\n").split("\n")[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"} and result["correct"]
    except ValueError:
        ok = False
    if not ok:
        fail("no valid result line")


if __name__ == "__main__":
    main()
