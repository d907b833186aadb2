#!/usr/bin/env python3
"""Check that the benchmark's deterministic metrics repeat for one seed.

    python3 perfbench/seedcheck.py [--seed N] [--seconds S] [workload ...]

Runs every workload (or the ones named) twice untraced and twice traced with
the same seed, from the root of a qtc checkout, and compares the metrics that
depend only on the seed: the routing-quality and completion metrics and the
count-type per-layer metrics. Exits non-zero on any difference or failed run.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["hybrid-qx4", "compile-heavyhex", "noisy-wide", "ideal-sim"]
DETERMINISTIC = {
    "0": ["swaps_added", "neg_log_success", "ok_ratio"],
    "1": ["map.trials", "map.swaps", "noise.plan_sweeps", "sim.fused_ops",
          "noise.sim_width", "noise.logical_width",
          "sim.engine_runs.stabilizer", "sim.engine_runs.dd",
          "sim.engine_runs.statevector", "dd.peak_live_nodes",
          "exec.failures.unsupported_qubit_count", "exec.failures.other"],
}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} trace={trace}: run failed "
                 f"(exit {out.returncode})\n{out.stdout}{out.stderr}")
    return json.loads(lines[-1])["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    mismatches = 0
    for workload in args.workloads:
        for trace, names in DETERMINISTIC.items():
            a = run(workload, args.seed, args.seconds, trace)
            b = run(workload, args.seed, args.seconds, trace)
            for name in names:
                same = a[name]["value"] == b[name]["value"]
                mismatches += 0 if same else 1
                print(f"{workload:17s} {name:40s} {a[name]['value']:>14g} "
                      f"{b[name]['value']:>14g} {'ok' if same else 'DIFFERS'}")
    sys.exit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
