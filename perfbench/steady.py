#!/usr/bin/env python3
"""Repeat benchmark runs and report each metric's spread.

    python3 perfbench/steady.py [--workload NAME ...] [--runs N] [--seconds S]

Run from the repository root.  For every workload (default: all three)
it runs perfbench/run.py --trace 0 with seeds 1..N and prints per
metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median.
Compare the spread with the metric's bound in BENCHMARK.json: a metric is
steady when its spread is well below the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["list-hp-mixed", "tree-ibr-churn", "store-hln-multiget"]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: a correctness check failed\n{out.stdout}")
    return result["metrics"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    a = p.parse_args()
    for w in a.workload or WORKLOADS:
        values = {}
        for seed in range(1, a.runs + 1):
            metrics = run_once(w, seed, a.seconds)
            for name, m in metrics.items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"{w}: {a.runs} runs, seeds 1..{a.runs}")
        print(f"  {'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  unit")
        for name, (unit, vs) in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:30} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f}  {unit}")
            print("      runs: " + " ".join(f"{v:.4g}" for v in vs))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
