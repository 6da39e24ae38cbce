#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs it.

    python3 perfbench/run.py --workload paper_1d|grid_2d|explore_serve \
        --seed N --seconds S --trace 0|1 [--corrupt-answer 1]

Run from the repository root. The program (perfbench/*.cc) is compiled
together with the engine's libraries under src/ into the build directory
named by CARGO_TARGET_DIR (default .bench_build), with cmake's Release
configuration. Its last stdout line is the JSON result; this
script passes its output and exit code through unchanged.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write(
            "perfbench: program missing: no src/CMakeLists.txt under %s; "
            "run from a checkout of the repository\n" % ROOT)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                         ".bench_build", "perfbench")
    binary = os.path.join(build, "dqr_perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", "4"],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return done.returncode
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
