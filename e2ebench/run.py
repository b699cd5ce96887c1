#!/usr/bin/env python3
"""Builds the e2ebench driver from this checkout's sources and runs it.

Usage (from the root of a checkout):
    python3 e2ebench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

All arguments are passed to the driver unchanged (see e2ebench/src/main.cpp).
The build lives in .bench_build/e2ebench under the current directory; cmake
rebuilds only what changed. Build output goes to stderr so the driver's last
stdout line stays the JSON result. Exits non-zero, without a result, when the
build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    cmds = [["cmake", "--build", build_dir, "-j", jobs, "--target", "e2ebench"]]
    # Configure once; later builds re-run cmake themselves when a CMakeLists
    # changes.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in cmds:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "e2ebench")


def main():
    build_dir = os.path.join(os.getcwd(), ".bench_build", "e2ebench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
