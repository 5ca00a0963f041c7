#!/usr/bin/env python3
"""Run-to-run gates on the stats JSON the drivers write.

determinism: a pinned-seed lossy run with the reliable layer on must
    replay tick for tick. ``stress_put_get --seed=7 --plan=lossy
    --iters=1 --reliable`` runs twice and must write byte-identical
    stats JSON, retransmission timers and all; the same run at
    ``--threads=4`` must match outside the top-level ``sim`` subtree
    (the kernel's self-telemetry). Any divergence means an event got
    ordered by something other than model time.

tracing: ``--trace-out`` (full span mode) must move no stat outside
    ``spans.*``. ``ap_run --cells=8`` runs with and without it and
    the two stats JSON files must be equal once ``spans`` is dropped.

Every run must exit 0.

Usage: test_gates.py determinism PATH/TO/stress_put_get
       test_gates.py tracing PATH/TO/ap_run
Exit status 0 when the gate holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile


def run(cmd):
    """Run cmd and return its exit status, reporting a failure."""
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=60)
    if proc.returncode != 0:
        print(f"FAIL  {' '.join(cmd)}: exit {proc.returncode}")
    return proc.returncode


def load_without(path, key):
    with open(path) as f:
        doc = json.load(f)
    doc.pop(key, None)
    return doc


def determinism(stress, tmp):
    base = [stress, "--seed=7", "--plan=lossy", "--iters=1",
            "--reliable"]
    paths = [os.path.join(tmp, n) for n in ("a.json", "b.json",
                                            "t4.json")]
    status = (run(base + [f"--stats-out={paths[0]}"]) or
              run(base + [f"--stats-out={paths[1]}"]) or
              run(base + ["--threads=4", f"--stats-out={paths[2]}"]))
    if status:
        return 1
    bad = 0
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        same = a.read() == b.read()
    print(f"{'ok  ' if same else 'FAIL'}  two runs write identical "
          f"stats JSON")
    bad += not same
    same = load_without(paths[0], "sim") == load_without(paths[2], "sim")
    print(f"{'ok  ' if same else 'FAIL'}  --threads=4 matches outside "
          f"sim")
    bad += not same
    return 1 if bad else 0


def tracing(ap_run, tmp):
    traced = os.path.join(tmp, "traced.json")
    untraced = os.path.join(tmp, "untraced.json")
    trace = os.path.join(tmp, "trace.json")
    status = (run([ap_run, "--cells=8", f"--stats-out={traced}",
                   f"--trace-out={trace}"]) or
              run([ap_run, "--cells=8", f"--stats-out={untraced}"]))
    if status:
        return 1
    same = load_without(traced, "spans") == load_without(untraced,
                                                         "spans")
    print(f"{'ok  ' if same else 'FAIL'}  --trace-out changes no stat "
          f"outside spans.*")
    return 0 if same else 1


GATES = {"determinism": determinism, "tracing": tracing}


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in GATES:
        print("usage: test_gates.py determinism|tracing PATH/TO/DRIVER")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        return GATES[sys.argv[1]](sys.argv[2], tmp)


if __name__ == "__main__":
    sys.exit(main())
