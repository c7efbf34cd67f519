#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload tcp-walk --seeds 1-10 [--seconds 10] [--trace 0]

For every metric of the result line it prints the median over the runs
and the distance between the first and third quartiles as a share of the
median (`statistics.quantiles(values, n=4)`), next to the metric's bound
from BENCHMARK.json. A run that fails or prints no result is reported and
counted; the script exits 1 if any did.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    bad = 0
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None or not result.get("correct"):
            bad += 1
            print(f"seed {seed}: exit {proc.returncode}; stderr tail:\n{proc.stderr[-800:]}")
            if result is None:
                continue
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"\n{'metric':<36} {'median':>12} {'iqr/median':>10} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        print(f"{name:<36} {med:>12.5g} {spread:>10.4f} {bound if bound is not None else '':>6}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
