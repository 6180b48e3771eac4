#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-mlp --seed 1 --seconds 25 --trace 0

Every call configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; after the first call both steps are incremental.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    steps = [
        ["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    binary = os.path.join(build_dir, "perfbench")
    command = [binary, *sys.argv[1:], "--work-dir", os.path.join(build_root, "perfbench-work")]
    try:
        return subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
