#!/usr/bin/env python3
"""Run-to-run gates on the stats JSON and stdout the drivers write.

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

alloc: the hot path's zero-allocation contract. After warmup, a
    repeated PUT burst in ``bench_micro_putget
    --benchmark_min_time=0.01`` must carve no event node, spill no
    closure to the heap and miss no payload buffer: the three
    ``alloc.steady_*_delta`` values of its JSON report must be 0.

serve_drill: the ``ap_serve --cells=16 --jobs=32 --drill=kill-cell
    --jobs-table`` fault drill. Seed 1 must print the same stdout
    twice and at ``--threads=4``, and its stats must show a killed
    attempt, a quarantined partition, a retried job and 32 submitted
    jobs. Seed 4 kills a cell with PUTs in flight: its stdout must be
    the same at 1 and 4 threads and its ``tnet.dead_cell_drops``
    positive. No drill may print a utilization above 100%.

Every run must exit 0.

Usage: test_gates.py determinism PATH/TO/stress_put_get
       test_gates.py tracing PATH/TO/ap_run
       test_gates.py alloc PATH/TO/bench_micro_putget
       test_gates.py serve_drill PATH/TO/ap_serve
Exit status 0 when the gate holds, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys
import tempfile


def run(cmd):
    """Run cmd; return its stdout if it exits 0, else report the
    failure and return None."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          timeout=60)
    if proc.returncode != 0:
        print(f"FAIL  {' '.join(cmd)}: exit {proc.returncode}")
        return None
    return proc.stdout


def run_all(cmds):
    """Run cmds in turn; return their stdouts, or None at the first
    that fails."""
    outs = []
    for cmd in cmds:
        out = run(cmd)
        if out is None:
            return None
        outs.append(out)
    return outs


def verdict(ok, what):
    """Report one assertion; return 1 when it fails."""
    print(f"{'ok  ' if ok else 'FAIL'}  {what}")
    return 0 if ok else 1


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
    if run_all([base + [f"--stats-out={paths[0]}"],
                base + [f"--stats-out={paths[1]}"],
                base + ["--threads=4", f"--stats-out={paths[2]}"]]) is None:
        return 1
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        same = a.read() == b.read()
    bad = verdict(same, "two runs write identical stats JSON")
    bad += verdict(load_without(paths[0], "sim") ==
                   load_without(paths[2], "sim"),
                   "--threads=4 matches outside sim")
    return 1 if bad else 0


def tracing(ap_run, tmp):
    traced = os.path.join(tmp, "traced.json")
    untraced = os.path.join(tmp, "untraced.json")
    trace = os.path.join(tmp, "trace.json")
    if run_all([[ap_run, "--cells=8", f"--stats-out={traced}",
                 f"--trace-out={trace}"],
                [ap_run, "--cells=8", f"--stats-out={untraced}"]]) is None:
        return 1
    return verdict(load_without(traced, "spans") ==
                   load_without(untraced, "spans"),
                   "--trace-out changes no stat outside spans.*")


def alloc(bench, tmp):
    report = os.path.join(tmp, "micro.json")
    if run([bench, "--benchmark_min_time=0.01",
            f"--json-out={report}"]) is None:
        return 1
    with open(report) as f:
        deltas = json.load(f)["alloc"]
    bad = 0
    for key in ("steady_pool_miss_delta", "steady_fn_heap_delta",
                "steady_payload_miss_delta"):
        bad += verdict(deltas[key] == 0,
                       f"alloc.{key} = {deltas[key]} (must be 0)")
    return 1 if bad else 0


def serve_drill(ap_serve, tmp):
    base = [ap_serve, "--cells=16", "--jobs=32", "--drill=kill-cell",
            "--jobs-table"]
    seed1 = os.path.join(tmp, "seed1.json")
    seed4 = os.path.join(tmp, "seed4.json")
    outs = run_all([base + ["--seed=1", f"--stats-out={seed1}"],
                    base + ["--seed=1"],
                    base + ["--seed=1", "--threads=4"],
                    base + ["--seed=4", "--threads=1",
                            f"--stats-out={seed4}"],
                    base + ["--seed=4", "--threads=4"]])
    if outs is None:
        return 1
    bad = verdict(outs[0] == outs[1], "seed 1 prints the same twice")
    bad += verdict(outs[0] == outs[2],
                   "seed 1 prints the same at --threads=4")
    bad += verdict(outs[3] == outs[4],
                   "seed 4 prints the same at 1 and 4 threads")

    with open(seed1) as f:
        serve = json.load(f)["serve"]
    for what, value in (
            ("attempts.killed", serve["attempts"]["killed"]),
            ("partitions.quarantined",
             serve["partitions"]["quarantined"]),
            ("jobs.retried", serve["jobs"]["retried"])):
        bad += verdict(value > 0, f"seed 1 {what} = {value} (must be > 0)")
    submitted = serve["jobs"]["submitted"]
    bad += verdict(submitted == 32,
                   f"seed 1 jobs.submitted = {submitted} (must be 32)")

    # A run-time kill is fail-stop: the victim's traffic stops.
    with open(seed4) as f:
        drops = json.load(f)["tnet"]["dead_cell_drops"]
    bad += verdict(drops > 0,
                   f"seed 4 tnet.dead_cell_drops = {drops} (must be > 0)")

    utilizations = [[float(u) for u in
                     re.findall(r"utilization ([0-9.]+)%", out)]
                    for out in outs]
    bad += verdict(all(us and max(us) <= 100.0 for us in utilizations),
                   f"every drill prints a utilization <= 100% "
                   f"({utilizations})")
    return 1 if bad else 0


GATES = {"determinism": determinism, "tracing": tracing,
         "alloc": alloc, "serve_drill": serve_drill}


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in GATES:
        print(f"usage: test_gates.py {'|'.join(GATES)} PATH/TO/DRIVER")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        return GATES[sys.argv[1]](sys.argv[2], tmp)


if __name__ == "__main__":
    sys.exit(main())
