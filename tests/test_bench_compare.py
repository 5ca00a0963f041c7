#!/usr/bin/env python3
"""Check tools/bench_compare.py's tolerance classes on generated reports.

Every path under ``speed.`` is host time, so a 20% drop in
``speed.put_ops_per_sec`` or ``speed.iters_per_sec`` must pass the gate
(host metrics fail only beyond 50%). Model metrics fail beyond 15%: a
20% rise in a ``*_us`` latency or a 20% drop in ``jobs_per_sec`` (the
serve bench's model-time rate) must fail it.

Usage: test_bench_compare.py [PATH/TO/bench_compare.py]
Exit status 0 when every case behaves, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = (sys.argv[1] if len(sys.argv) > 1 else
          os.path.join(HERE, "..", "tools", "bench_compare.py"))


def gate(base, cand):
    """Exit status of bench_compare.py on one baseline/candidate pair."""
    with tempfile.TemporaryDirectory() as d:
        baselines = os.path.join(d, "baselines")
        os.mkdir(baselines)
        name = "BENCH_probe.json"
        with open(os.path.join(baselines, name), "w") as f:
            json.dump(base, f)
        cand_path = os.path.join(d, name)
        with open(cand_path, "w") as f:
            json.dump(cand, f)
        r = subprocess.run(
            [sys.executable, SCRIPT, f"--baseline-dir={baselines}",
             cand_path], capture_output=True, text=True)
        sys.stdout.write(r.stdout)
        return r.returncode


def main():
    cases = [
        ("speed.put_ops_per_sec -20%", 0,
         {"speed": {"put_ops_per_sec": 1000.0}},
         {"speed": {"put_ops_per_sec": 800.0}}),
        ("speed.iters_per_sec -20%", 0,
         {"speed": {"iters_per_sec": 50.0}},
         {"speed": {"iters_per_sec": 40.0}}),
        ("put_us +20%", 1, {"put_us": 10.0}, {"put_us": 12.0}),
        ("light.jobs_per_sec -20%", 1,
         {"light": {"jobs_per_sec": 100.0}},
         {"light": {"jobs_per_sec": 80.0}}),
    ]
    bad = 0
    for label, want, base, cand in cases:
        got = gate(base, cand)
        if got != want:
            print(f"FAIL  {label}: bench_compare exited {got}, "
                  f"expected {want}")
            bad += 1
        else:
            print(f"ok    {label}: exit {got}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
