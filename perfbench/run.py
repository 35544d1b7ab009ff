#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <kitti_pair|tj_fleet|edge_fleet>
        --seed N --seconds S --trace <0|1> [--smoke] [--emit-reference]

The driver (perfbench/*.cc) and the library sources under src/ are built
with CMake into $CARGO_TARGET_DIR (default .bench_build) on first use;
later runs only re-check the build.  Build output goes to standard error,
so the last line of standard output is the driver's JSON result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WORKLOADS = ("kitti_pair", "tj_fleet", "edge_fleet")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = REPO_ROOT / target
    return target / "perfbench"


def build() -> Path:
    if not (REPO_ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources under src/; nothing to build")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "cooper_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "cooper_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few frames, checked against committed digests")
    parser.add_argument("--emit-reference", action="store_true",
                        help="print the reference digest row for the seed")
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(BENCH_DIR / "reference_digests.txt")]
    if args.smoke:
        cmd.append("--smoke")
    if args.emit_reference:
        cmd.append("--emit-reference")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
