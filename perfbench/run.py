#!/usr/bin/env python3
"""Builds and runs the end-to-end service benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ingest_zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The first run configures and builds `svcbench` (Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; build output goes to stderr. Then it runs svcbench with the
same arguments; the last line of stdout is svcbench's JSON result and the
exit code is svcbench's. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "svcbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "svcbench")
    try:
        return subprocess.run([exe] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: svcbench timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
