#!/usr/bin/env python3
"""Build and run the qtc benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench on first use, then runs one workload. The build log
goes to stderr; the benchmark's report goes to stdout, its last line being
the JSON result. The exit code is the benchmark's: non-zero when the build
fails or any output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("perfbench: src/CMakeLists.txt not found; run from the root "
                 "of a qtc checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "qtc_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            BUILD_DIR, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
