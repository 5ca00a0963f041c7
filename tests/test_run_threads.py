#!/usr/bin/env python3
"""ap_run gives the same run at --threads=4 as at --threads=1.

Each case runs once at one kernel thread and three times at four. Every
four-thread run must match the one-thread run: the same exit status (a
kill leaves survivors in watchdog errors, so some cases exit 1 by
design), the same stdout apart from the kernel's own report (the
``sharded kernel:`` block, printed only with more than one shard) and
the ``stats JSON written`` line, and the same stats JSON once the
top-level ``sim`` subtree is dropped (the kernel's self-telemetry:
shard shape and host wall-clock barrier waits). No run may print a
``DEADLOCK`` line.

Usage: test_run_threads.py PATH/TO/ap_run
Exit status 0 when every case matches, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

CELLS = 16
CASES = {
    "plain": [],
    "lossy": ["--faults=lossy", "--reliable", "--seed=1"],
    "kill": ["--kill=5@30"],
    "kill86": ["--kill=5@86"],
    "killrel": ["--faults=lossy", "--reliable", "--seed=1",
                "--kill=5@86"],
}
REPEATS = 3
KERNEL_REPORT = ("sharded kernel:", "  windows:", "  shard ")


def run(ap_run, args, threads, stats_path):
    """Run once: (exit status, filtered stdout lines, stats minus sim,
    DEADLOCK lines)."""
    cmd = [ap_run, f"--cells={CELLS}"] + args + [
        f"--threads={threads}", f"--stats-out={stats_path}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          timeout=60)
    lines = proc.stdout.splitlines()
    deadlocks = [l for l in lines if "DEADLOCK" in l]
    stdout = [l for l in lines if not l.startswith(KERNEL_REPORT) and
              not l.startswith("stats JSON written")]
    with open(stats_path) as f:
        stats = json.load(f)
    stats.pop("sim", None)
    return proc.returncode, stdout, stats, deadlocks


def first_difference(a, b):
    for x, y in zip(a, b):
        if x != y:
            return f"{x!r} vs {y!r}"
    return f"{len(a)} vs {len(b)} lines"


def main():
    if len(sys.argv) != 2:
        print("usage: test_run_threads.py PATH/TO/ap_run")
        return 2
    ap_run = sys.argv[1]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in CASES.items():
            path = os.path.join(tmp, f"{name}.json")
            status, stdout, stats, deadlocks = run(ap_run, args, 1, path)
            problems = [f"threads=1 printed {l}" for l in deadlocks]
            for rep in range(REPEATS):
                s4, out4, stats4, dl4 = run(ap_run, args, 4, path)
                problems += [f"threads=4 printed {l}" for l in dl4]
                if s4 != status:
                    problems.append(f"repeat {rep}: exit {s4}, "
                                    f"threads=1 exit {status}")
                if out4 != stdout:
                    problems.append(f"repeat {rep}: stdout differs: "
                                    f"{first_difference(stdout, out4)}")
                if stats4 != stats:
                    problems.append(f"repeat {rep}: stats outside "
                                    f"sim differ")
            bad += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '}  {name}: "
                  f"{' '.join(args) or '(no faults)'}, exit {status}")
            for p in problems:
                print(f"      {p}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
