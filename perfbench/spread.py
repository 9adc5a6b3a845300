"""Run the benchmark over several seeds and print the spread of each metric.

Usage:
    python3 perfbench/spread.py [--workload NAME ...] [--runs N] [--trace 0|1]

Runs run.py once per workload and seed (seeds 1, 2, ..., N, one after
another, each for BENCHMARK.json's run_seconds), then prints per metric the
median, the quartiles, the quartile spread (q3 - q1) / median and the range
(max - min) / median, with the metric's bound from BENCHMARK.json, and then
the value of every run in seed order.  The workloads default to those in
BENCHMARK.json.  With --runs 1 it simply prints every metric of each
workload.  It exits 1 if any run failed or was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bad = 0
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(1, args.runs + 1):
            res = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(res)
            print(f"# {workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
            bad += not res["correct"]
        print(f"{workload}: {len(runs)} runs")
        print(f"  {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
        for name in next((r["metrics"] for r in runs if r["metrics"]), {}):
            values = [r["metrics"][name]["value"] for r in runs if r["metrics"]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rel = (lambda x: x / med) if med else (lambda x: 0.0)
            print(f"  {name:<32} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel(q3 - q1):8.4f} "
                  f"{rel(max(values) - min(values)):9.4f} {bounds.get(name) or '':>6}")
            print(f"    values: {' '.join(f'{v:.6g}' for v in values)}")
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
