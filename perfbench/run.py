#!/usr/bin/env python3
"""Build the simulator's end-to-end benchmark and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The driver binary is built from the repository's own sources with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
It runs the workload for S seconds and prints, as its last stdout line,
one JSON object with the keys correct, attempted, failed and metrics.
A traced run (--trace 1) also writes the benchmark's spans as Chrome
trace JSON to spans-<workload>-<seed>.json in the build directory.
This script checks that object against BENCHMARK.json (every metric of
the requested kind, by name and unit, each a finite number; end-to-end
metrics positive) and prints it as its own last line.

It exits non-zero without printing a result when the sources are
missing, the build fails, the driver fails or times out, or its output
does not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

WORKLOADS = ("emulator_mix", "paper_replay")
# The driver must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the driver; return the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources next to perfbench/ (src/CMakeLists.txt)")
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed ({' '.join(cmd[:2])}); see {log_path}")
    return build_dir


def expected_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json lists for the mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    kind = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[kind]]


def check_result(result, expected, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number >= 0")
    metrics = result["metrics"]
    names = [n for n, _ in expected]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}")
    for name, unit in expected:
        m = metrics[name]
        v = m.get("value")
        if m.get("unit") != unit:
            fail(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"{name}: value {v!r} is not a finite number")
        if not trace and v <= 0:
            fail(f"{name}: end-to-end metric reads {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be > 0 and --seed >= 0")

    build_dir = build()
    expected = expected_metrics(args.trace)
    cmd = [os.path.join(build_dir, "perfbench_driver"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"driver exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("driver's last line is not JSON")
    check_result(result, expected, args.trace)

    for line in lines[:-1]:
        print(line)
    print(f"driver wall time: {time.monotonic() - start:.2f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
