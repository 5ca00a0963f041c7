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

span_artifacts: every span and profile artifact the drivers write is
    well-formed and passes tools/check_profile_schema.py. The runs:
    ``ap_run --cells=8`` with ``--stats-out`` and ``--trace-out``, and
    again with ``--profile-json`` and ``--flight-dump``; ``stress_put_get
    --seed=7 --plan=overflow --iters=1`` with ``--stats-out`` and
    ``--trace-out``; ``bench_ablation_queue --json-out``;
    ``bench_micro_putget``'s 1 KB PUT latency with ``--profile-out``
    and ``--span-trace-out``; and ``ap_run --cells=16 --threads=4
    --profile`` with ``--timeline-out``, ``--profile-json`` and
    ``--stats-out``. Every JSON file must parse; the four Chrome traces
    must pass ``chrome``; the two single-thread profiles must pass
    ``profile --min-coverage=0.95``; the threaded run's timeline and
    profile must pass ``timeline`` and ``profile``, and its stats must
    show ``sim.window.count > 0`` and ``sim.shard.0.executed > 0``.

Every run must exit 0.

Usage: test_gates.py determinism PATH/TO/stress_put_get
       test_gates.py tracing PATH/TO/ap_run
       test_gates.py alloc PATH/TO/bench_micro_putget
       test_gates.py serve_drill PATH/TO/ap_serve
       test_gates.py span_artifacts PATH/TO/ap_run PATH/TO/stress_put_get
           PATH/TO/bench_micro_putget PATH/TO/bench_ablation_queue
           PATH/TO/check_profile_schema.py
Exit status 0 when the gate holds, 1 otherwise.
"""

import glob
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


def schema_check(schema, kind, files, *options):
    """Run check_profile_schema.py on files; return 1 when it fails."""
    proc = subprocess.run([sys.executable, schema, kind, *options,
                           *files], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=60)
    bad = verdict(proc.returncode == 0,
                  " ".join([kind, *options,
                            *(os.path.basename(f) for f in files)]))
    if bad:
        print(proc.stdout, end="")
    return bad


def span_artifacts(ap_run, stress, micro, ablation, schema, tmp):
    def at(name):
        return os.path.join(tmp, name)

    if run_all([
            [ap_run, "--cells=8", f"--stats-out={at('ap_run_stats.json')}",
             f"--trace-out={at('ap_run_trace.json')}"],
            [stress, "--seed=7", "--plan=overflow", "--iters=1",
             f"--stats-out={at('stress_stats.json')}",
             f"--trace-out={at('stress_trace.json')}"],
            [ablation, f"--json-out={at('BENCH_ablation_queue.json')}"],
            [ap_run, "--cells=8",
             f"--profile-json={at('ap_run_profile.json')}",
             f"--flight-dump={at('ap_run_flight.json')}"],
            [micro, "--benchmark_filter=BM_PutLatency/1024$",
             "--benchmark_min_time=0.01", "--profile",
             f"--profile-out={at('putget_profile.json')}",
             f"--span-trace-out={at('putget_spans.json')}",
             f"--json-out={at('BENCH_micro_putget.json')}"],
            [ap_run, "--cells=16", "--threads=4", "--profile",
             f"--timeline-out={at('threads4_timeline.json')}",
             f"--profile-json={at('threads4_profile.json')}",
             f"--stats-out={at('threads4_stats.json')}"]]) is None:
        return 1

    bad = 0
    for path in sorted(glob.glob(at("*.json"))):
        try:
            with open(path) as f:
                json.load(f)
            valid = True
        except ValueError:
            valid = False
        bad += verdict(valid, f"{os.path.basename(path)} is valid JSON")
    bad += schema_check(schema, "chrome",
                        [at("ap_run_trace.json"), at("stress_trace.json"),
                         at("ap_run_flight.json"), at("putget_spans.json")])
    bad += schema_check(schema, "profile",
                        [at("ap_run_profile.json"),
                         at("putget_profile.json")],
                        "--min-coverage=0.95")
    bad += schema_check(schema, "timeline", [at("threads4_timeline.json")])
    bad += schema_check(schema, "profile", [at("threads4_profile.json")])

    with open(at("threads4_stats.json")) as f:
        sim = json.load(f)["sim"]
    windows = sim["window"]["count"]
    executed = sim["shard"]["0"]["executed"]
    bad += verdict(windows > 0,
                   f"--threads=4 sim.window.count = {windows} (must be > 0)")
    bad += verdict(executed > 0, f"--threads=4 sim.shard.0.executed = "
                                 f"{executed} (must be > 0)")
    return 1 if bad else 0


GATES = {
    "determinism": (determinism, ["stress_put_get"]),
    "tracing": (tracing, ["ap_run"]),
    "alloc": (alloc, ["bench_micro_putget"]),
    "serve_drill": (serve_drill, ["ap_serve"]),
    "span_artifacts": (span_artifacts,
                       ["ap_run", "stress_put_get", "bench_micro_putget",
                        "bench_ablation_queue",
                        "check_profile_schema.py"]),
}


def main():
    gate = GATES.get(sys.argv[1]) if len(sys.argv) > 1 else None
    if gate is None or len(sys.argv) != 2 + len(gate[1]):
        for name, (_, paths) in GATES.items():
            print(f"usage: test_gates.py {name} "
                  f"{' '.join('PATH/TO/' + p for p in paths)}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        return gate[0](*sys.argv[2:], tmp)


if __name__ == "__main__":
    sys.exit(main())
