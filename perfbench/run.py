#!/usr/bin/env python3
"""Builds the benchmark driver (Release, from ../src) and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan_read --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run record (nproc, build type, compiler, commit, seed, sessions, window).
Both are also saved to .bench_results/ for perfbench/compare.py. Build
output goes to standard error. The build directory is $CARGO_TARGET_DIR
when set, else .bench_build.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_driver"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench_driver")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["scan_read", "hot_cache", "ttl_churn"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no ExpDB sources at", os.path.join(ROOT, "src"))
        return 1
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    driver = build(build_dir)
    if driver is None:
        log("build failed")
        return 1

    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    if args.trace:
        cmd += ["--spans-out", stem + ".spans.json"]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out after", DRIVER_TIMEOUT_S, "s")
        return 1
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2:
        log("driver failed with code", r.returncode)
        return 1
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    with open(stem + ".json", "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    print(lines[-2])
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
