#!/usr/bin/env python3
"""Builds the view-maintenance benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 mvbench/run.py --workload update_mix --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; the first run configures and compiles, later runs only relink
what changed. The launcher then replaces itself with the benchmark binary,
so the measured run is a single single-threaded process whose last stdout
line is the JSON result. Build output goes to stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "mvbench"


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("mvbench: no store sources (src/) next to the benchmark")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "mvbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"mvbench: build step failed: {' '.join(cmd)}")
    return out / "mvbench"


def main() -> None:
    binary = build()
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(str(binary), [str(binary)] + sys.argv[1:])


if __name__ == "__main__":
    main()
