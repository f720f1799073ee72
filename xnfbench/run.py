#!/usr/bin/env python3
"""Builds xnfbench from the checkout's sources and runs one measurement.

Run from the root of a checkout:

    python3 xnfbench/run.py --workload co_extract --seed 1 --seconds 30 --trace 0

The engine (../src) and the benchmark program are built with CMake into
$CARGO_TARGET_DIR/xnfbench (default: .bench_build/xnfbench under the
checkout); later runs only re-check the build. Build output goes to standard
error. The program's standard output is passed through unchanged: its last
line is the run's JSON result. With --trace 1 the spans of the run are
written to $CARGO_TARGET_DIR/xnfbench-spans/<workload>.tsv.

Exits non-zero, without a result line, when the sources are missing, the
build fails or the program fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("co_extract", "nav_sql", "cad_checkout")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"xnfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds; returns the program's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no engine sources under {os.path.join(ROOT, 'src')}")
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = max(1, min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", str(jobs)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "xnfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(os.path.join(target, "xnfbench"))
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(target, "xnfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, args.workload + ".tsv")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"benchmark program exited with {proc.returncode}")
        return proc.returncode or 1
    try:
        keys = set(json.loads(lines[-1]))
    except (ValueError, TypeError):
        keys = set()
    if keys != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        log("benchmark program printed no result line")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
