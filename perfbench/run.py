#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --calibrate

Run from the repository root.  Builds perfbench/bench.exe from source in
release mode (into $CARGO_TARGET_DIR when set, else _build), runs it, and
relays its output: a human-readable table, then one JSON object as the
last line.  Exits non-zero, without a result line, when the sources are
missing or the build fails, and with the program's code otherwise (1 when
a correctness check failed).
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/bench.exe"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(f"missing {need}: run from the root of a full source checkout")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", build_dir, TARGET]
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if res.returncode != 0:
        fail(f"build failed with exit code {res.returncode}")
    return os.path.join(build_dir, "default", "perfbench", "bench.exe")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--calibrate", action="store_true")
    a = p.parse_args()
    if not a.calibrate and not a.workload:
        p.error("--workload is required")
    exe = build()
    args = ["--calibrate"] if a.calibrate else [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        res = subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
