#!/usr/bin/env python3
"""Fault-plan runs of ap_run end in typed errors, never in a deadlock.

The chaos plan's injected MSC+ page faults drop a command at gather or
flush a message at scatter, which loses a PUT above the reliable
layer, so the demo's flag waits can never complete. ap_run arms the
watchdog for every fault plan: each stuck cell must report a
``comm error: ... watchdog expired`` line, the run must exit 1, and no
``DEADLOCK`` line may appear.

Usage: test_run_faults.py PATH/TO/ap_run
Exit status 0 when every run behaves so, 1 otherwise.
"""

import subprocess
import sys

CELLS = 64
RUNS = [
    ["--faults=chaos", "--seed=7"],
    ["--faults=chaos", "--reliable", "--seed=3"],
]


def main():
    if len(sys.argv) != 2:
        print("usage: test_run_faults.py PATH/TO/ap_run")
        return 2
    bad = 0
    for args in RUNS:
        cmd = [sys.argv[1], f"--cells={CELLS}"] + args
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=60)
        lines = proc.stdout.splitlines()
        deadlocks = [l for l in lines if "DEADLOCK" in l]
        errors = [l for l in lines if l.startswith("comm error:")]
        expired = [l for l in errors if "watchdog expired" in l]
        ok = (proc.returncode == 1 and not deadlocks and
              len(errors) == CELLS and len(expired) == CELLS)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'}  {' '.join(cmd[1:])}: exit "
              f"{proc.returncode}, {len(errors)} comm errors "
              f"({len(expired)} watchdog), {len(deadlocks)} DEADLOCK "
              f"lines")
        for l in deadlocks:
            print(f"      {l}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
