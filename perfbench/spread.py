#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread against its bounds.

Usage (from the repository root):

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1]
                                [--workloads a,b] [--out FILE]

Runs perfbench/run.py untraced once per seed on each workload, one run
at a time, and prints for every end-to-end metric its median and its
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. A spread
is flagged when it exceeds a third of the metric's bound in
BENCHMARK.json. --out keeps every run's metrics as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    worst_ok = True
    for w in workloads:
        vals = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            vals.append(run_once(w, seed, spec["run_seconds"]))
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v:.5g}" for k, v in vals[-1].items()), flush=True)
        runs[w] = vals
        for name, bound in bounds.items():
            xs = [v[name] for v in vals]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread <= bound / 3 else "WIDE"
            if flag != "ok" and name != "setup_s":
                worst_ok = False
            print(f"  {w:15s} {name:12s} median {med:.6g} spread "
                  f"{spread:.4f} bound {bound} {flag}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
