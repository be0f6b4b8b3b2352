#!/usr/bin/env python3
"""Steadiness runs: the benchmark command of BENCHMARK.json, N seeds per
workload with the workloads interleaved, then each end-to-end metric's
median and spread (interquartile range over median, from
statistics.quantiles(values, n=4)) per workload.

Run from the repository root:
    python3 perfbench/steady.py [--runs 10] [--first-seed 1000] [workload ...]
"""
import argparse
import json
import statistics
import subprocess
import sys

bench = json.load(open("BENCHMARK.json"))
parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=1000)
parser.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
args = parser.parse_args()

values = {w: {} for w in args.workloads}
for i in range(args.runs):
    seed = args.first_seed + i
    for w in args.workloads:
        cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"{w} seed {seed} failed ({p.returncode}):\n{p.stderr}")
        result = json.loads(lines[-1])
        print(w, seed, json.dumps(result), flush=True)
        for name, m in result["metrics"].items():
            values[w].setdefault(name, []).append(m["value"])

bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
for w, metrics in values.items():
    print(f"== {w}")
    for name, v in metrics.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        print(f"  {name:16s} median {med:12.5f}  spread {(q3 - q1) / med:7.2%}"
              f"  bound {bounds[name]:.2f}  min {min(v):.5f}  max {max(v):.5f}")
