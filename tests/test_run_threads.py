#!/usr/bin/env python3
"""ap_run gives the same run at --threads=4 as at --threads=1.

Each case runs once at one kernel thread and three times at four, once
plain and once traced (``--profile-json`` and ``--trace-out``, which
record the full span log and print the critical-path profile). Every
four-thread run must match the one-thread run: the same exit status (a
kill leaves survivors in watchdog errors, so some cases exit 1 by
design), the same stdout apart from the kernel's own report (the
``sharded kernel:`` block, printed only with more than one shard) and
the ``stats JSON written`` line, and the same stats JSON once the
top-level ``sim`` subtree is dropped (the kernel's self-telemetry:
shard shape and host wall-clock barrier waits). A traced run's stdout
holds the profile text, and its profile JSON and Chrome trace must be
byte-identical too: the span stream records the simulated machine
only, never the kernel's windows. No run may print a ``DEADLOCK``
line.

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


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def run(ap_run, args, threads, tmp, traced):
    """Run once: (exit status, filtered stdout lines, stats minus sim,
    DEADLOCK lines, the profile JSON and trace bytes when traced)."""
    stats_path = os.path.join(tmp, "stats.json")
    profile_path = os.path.join(tmp, "profile.json")
    trace_path = os.path.join(tmp, "trace.json")
    cmd = [ap_run, f"--cells={CELLS}"] + args + [
        f"--threads={threads}", f"--stats-out={stats_path}"]
    if traced:
        cmd += [f"--profile-json={profile_path}",
                f"--trace-out={trace_path}"]
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
    files = ((read_bytes(profile_path), read_bytes(trace_path))
             if traced else None)
    return proc.returncode, stdout, stats, deadlocks, files


def first_difference(a, b):
    for x, y in zip(a, b):
        if x != y:
            return f"{x!r} vs {y!r}"
    return f"{len(a)} vs {len(b)} lines"


def check_case(ap_run, args, traced, tmp):
    """Run one case at 1 and 4 threads; return (exit status at one
    thread, the differences found)."""
    status, stdout, stats, deadlocks, files = run(ap_run, args, 1, tmp,
                                                  traced)
    problems = [f"threads=1 printed {l}" for l in deadlocks]
    for rep in range(REPEATS):
        s4, out4, stats4, dl4, files4 = run(ap_run, args, 4, tmp, traced)
        problems += [f"threads=4 printed {l}" for l in dl4]
        if s4 != status:
            problems.append(f"repeat {rep}: exit {s4}, "
                            f"threads=1 exit {status}")
        if out4 != stdout:
            problems.append(f"repeat {rep}: stdout differs: "
                            f"{first_difference(stdout, out4)}")
        if stats4 != stats:
            problems.append(f"repeat {rep}: stats outside sim differ")
        if traced:
            for what, one, four in zip(("profile JSON", "Chrome trace"),
                                       files, files4):
                if one != four:
                    problems.append(f"repeat {rep}: {what} differs "
                                    f"({len(one)} vs {len(four)} bytes)")
    return status, problems


def main():
    if len(sys.argv) != 2:
        print("usage: test_run_threads.py PATH/TO/ap_run")
        return 2
    ap_run = sys.argv[1]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in CASES.items():
            for traced in (False, True):
                status, problems = check_case(ap_run, args, traced, tmp)
                bad += bool(problems)
                print(f"{'FAIL' if problems else 'ok  '}  {name}"
                      f"{' traced' if traced else ''}: "
                      f"{' '.join(args) or '(no faults)'}, exit {status}")
                for p in problems:
                    print(f"      {p}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
