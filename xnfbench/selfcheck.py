#!/usr/bin/env python3
"""The benchmark's own test: with one seed, its count metrics repeat exactly.

Run from the root of a checkout:

    python3 xnfbench/selfcheck.py

Runs every workload twice untraced and twice traced through run.py, for
SECONDS each with seed SEED, and checks that each run is correct with no
failed op and that the counts an optimisation claim may rest on read exactly
the same in both runs. Exits non-zero and names the metric when one does not.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = 3
SEED = 7
WORKLOADS = ("co_extract", "nav_sql", "cad_checkout")
COUNTS = {
    0: ("server_calls_per_read",),
    1: ("exec.rows_scanned", "exec.join_probes", "exec.spool_read_rows",
        "cache.swizzle_installs", "cache.writeback_stmts_per_change"),
}


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    failures = []
    for workload in WORKLOADS:
        for trace, names in COUNTS.items():
            runs = [run(workload, SEED, SECONDS, trace)
                    for _ in range(2)]
            for r in runs:
                if not r["correct"] or r["failed"] != 0:
                    failures.append(f"{workload} trace={trace}: incorrect "
                                    f"run ({r['failed']} failed ops)")
            for name in names:
                values = [r["metrics"][name]["value"] for r in runs]
                status = "ok" if values[0] == values[1] else "DIFFERS"
                print(f"{workload:13s} {name:34s} {values[0]!r:>10} "
                      f"{values[1]!r:>10} {status}")
                if values[0] != values[1]:
                    failures.append(f"{workload}: {name} {values}")
    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
