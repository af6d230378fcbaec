#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mta_threat --seed 1 --seconds 20 --trace 0

The driver is configured and built under perfbench/build (build output goes
to stderr). Every file a run writes lands under perfbench/out. The last line
of stdout is the run's result as one JSON object.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE / "build"
OUT = HERE / "out"
EXPECTED = HERE / "expected_points.txt"


def build(env):
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, env=env)
    return BUILD / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=0,
                        help="fixed repetition count instead of --seconds")
    parser.add_argument("--expected", type=Path, default=EXPECTED)
    args = parser.parse_args()

    # Compiler and driver temp files stay inside the output directory.
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        driver = build(env)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    return subprocess.run(
        [str(driver), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--reps", str(args.reps), "--expected", str(args.expected),
         "--out", str(OUT)],
        env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
