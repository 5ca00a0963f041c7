#!/usr/bin/env python3
"""Schema checks for the observability JSON artifacts (CI gate).

Three document kinds:

  profile   critical-path breakdown written by `ap_run --profile-json=F`
            and `bench_micro_putget --profile-out=F`
            (obs/critpath.hh: coverage, dropped, stages.<name>,
            ops.<name>); a nonzero `dropped` means a partial profile,
            which fails any --min-coverage bar
  chrome    Chrome trace_event JSON from the span layer's one exporter
            (`--trace-out=F`, `--flight-dump=F`, `--span-trace-out=F`,
            `--postmortem-out=F`), with otherData.dropped
  timeline  perf-timeline JSON written by `--timeline-out=F`
            (obs/sampler.hh: series/level lists plus samples rows
            with strictly increasing t_us)
  sweep     parameterized sweep dataset written by `bench_sweep`
            (model/modelset.hh: points rows with strictly
            increasing x and per-point metric values)
  model     fitted scaling-law set written by `bench_sweep --fit`
            (one fitted term + envelope per metric)

Usage:
  check_profile_schema.py profile [--min-coverage=0.95] FILE...
  check_profile_schema.py chrome FILE...
  check_profile_schema.py timeline FILE...
  check_profile_schema.py sweep FILE...
  check_profile_schema.py model FILE...

Exit status 0 when every file conforms; 1 with a diagnostic per
violation otherwise. Standard library only.
"""

import json
import sys

STAGES = [
    "issue", "queue", "dma_send", "net", "dma_recv", "flag",
    "ring_deposit", "ring_receive", "retransmit", "barrier",
]


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    return 1


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_profile(path, doc, min_coverage):
    rc = 0
    for key in ("traces", "events", "end_to_end_us",
                "attributed_us", "coverage", "dropped"):
        if not is_num(doc.get(key)):
            rc |= fail(path, f"missing numeric field '{key}'")
    cov = doc.get("coverage")
    if is_num(cov) and not -1e-9 <= cov <= 1.0 + 1e-9:
        rc |= fail(path, f"coverage {cov} outside [0, 1]")
    if is_num(cov) and cov < min_coverage:
        rc |= fail(
            path,
            f"coverage {cov:.3f} below required {min_coverage}")
    dropped = doc.get("dropped")
    if min_coverage > 0 and is_num(dropped) and dropped != 0:
        rc |= fail(
            path,
            f"partial profile: {dropped} span events dropped, so "
            f"coverage cannot meet {min_coverage}")

    stages = doc.get("stages")
    if not isinstance(stages, dict):
        return rc | fail(path, "missing 'stages' object")
    for name in STAGES:
        st = stages.get(name)
        if not isinstance(st, dict):
            rc |= fail(path, f"stages.{name} missing")
            continue
        for key in ("us", "share", "events"):
            if not is_num(st.get(key)):
                rc |= fail(
                    path,
                    f"stages.{name}.{key} missing or non-numeric")

    ops = doc.get("ops")
    if not isinstance(ops, dict) or not ops:
        return rc | fail(path, "missing or empty 'ops' object")
    for name, op in ops.items():
        if not isinstance(op, dict):
            rc |= fail(path, f"ops.{name} is not an object")
            continue
        for key in ("traces", "end_to_end_us", "attributed_us",
                    "coverage"):
            if not is_num(op.get(key)):
                rc |= fail(
                    path, f"ops.{name}.{key} missing or non-numeric")
    return rc


def check_chrome(path, doc):
    rc = 0
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return rc | fail(path, "missing 'traceEvents' list")
    if not events:
        return rc | fail(path, "'traceEvents' is empty")
    seen_x = False
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            rc |= fail(path, f"traceEvents[{i}] is not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                rc |= fail(path, f"traceEvents[{i}] missing '{key}'")
        if ev.get("ph") == "X":
            seen_x = True
            for key in ("ts", "dur"):
                if not is_num(ev.get(key)):
                    rc |= fail(
                        path,
                        f"traceEvents[{i}] ('X') missing "
                        f"numeric '{key}'")
    if not seen_x:
        rc |= fail(path, "no complete ('X') span events")
    other = doc.get("otherData")
    if not isinstance(other, dict) or not is_num(other.get("dropped")):
        rc |= fail(path, "missing numeric 'otherData.dropped'")
    return rc


def check_timeline(path, doc):
    rc = 0
    if doc.get("kind") != "timeline":
        rc |= fail(path, "'kind' is not \"timeline\"")
    period = doc.get("period_us")
    if not is_num(period) or period <= 0:
        rc |= fail(path, "'period_us' missing or not positive")
    for key in ("taken", "dropped"):
        if not is_num(doc.get(key)):
            rc |= fail(path, f"missing numeric field '{key}'")

    series = doc.get("series")
    if (not isinstance(series, list) or not series or
            not all(isinstance(s, str) for s in series)):
        return rc | fail(
            path, "'series' missing, empty, or not all strings")
    level = doc.get("level")
    if (not isinstance(level, list) or len(level) != len(series) or
            not all(isinstance(b, bool) for b in level)):
        rc |= fail(
            path, "'level' missing or not booleans aligned "
                  "with 'series'")

    samples = doc.get("samples")
    if not isinstance(samples, list):
        return rc | fail(path, "missing 'samples' list")
    prev_t = None
    for i, row in enumerate(samples):
        if not isinstance(row, dict):
            rc |= fail(path, f"samples[{i}] is not an object")
            continue
        t = row.get("t_us")
        if not is_num(t):
            rc |= fail(path, f"samples[{i}].t_us missing")
        elif prev_t is not None and t <= prev_t:
            rc |= fail(
                path,
                f"samples[{i}].t_us {t} not after {prev_t}")
        if is_num(t):
            prev_t = t
        v = row.get("v")
        if (not isinstance(v, list) or len(v) != len(series) or
                not all(is_num(x) for x in v)):
            rc |= fail(
                path,
                f"samples[{i}].v missing or not {len(series)} "
                f"numbers")
    return rc


def check_sweep(path, doc):
    rc = 0
    if doc.get("kind") != "sweep":
        rc |= fail(path, "'kind' is not \"sweep\"")
    for key in ("sweep", "bench", "param", "unit"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            rc |= fail(path, f"missing string field '{key}'")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        return rc | fail(path, "missing or empty 'points' list")
    prev_x = None
    for i, row in enumerate(points):
        if not isinstance(row, dict):
            rc |= fail(path, f"points[{i}] is not an object")
            continue
        x = row.get("x")
        if not is_num(x):
            rc |= fail(path, f"points[{i}].x missing")
        elif prev_x is not None and x <= prev_x:
            rc |= fail(path, f"points[{i}].x {x} not after {prev_x}")
        if is_num(x):
            prev_x = x
        metrics = row.get("metrics")
        if (not isinstance(metrics, dict) or not metrics or
                not all(is_num(v) for v in metrics.values())):
            rc |= fail(
                path,
                f"points[{i}].metrics missing, empty, or "
                f"non-numeric")
        registry = row.get("registry")
        if registry is not None and (
                not isinstance(registry, dict) or
                not all(isinstance(v, int) and not isinstance(v, bool)
                        for v in registry.values())):
            rc |= fail(
                path, f"points[{i}].registry not integer-valued")
    return rc


def check_model(path, doc):
    rc = 0
    if doc.get("kind") != "model":
        rc |= fail(path, "'kind' is not \"model\"")
    for key in ("sweep", "bench", "param", "unit"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            rc |= fail(path, f"missing string field '{key}'")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        return rc | fail(path, "missing or empty 'metrics' list")
    for i, m in enumerate(metrics):
        if not isinstance(m, dict):
            rc |= fail(path, f"metrics[{i}] is not an object")
            continue
        name = m.get("metric", f"[{i}]")
        if not isinstance(m.get("metric"), str):
            rc |= fail(path, f"metrics[{i}].metric missing")
        if m.get("class") not in ("sim", "host", "count"):
            rc |= fail(path, f"metrics.{name}.class invalid")
        for key in ("c", "a", "exp", "r2", "adj_r2", "rmse_rel",
                    "cv_rmse_rel", "points", "xmin", "xmax",
                    "envelope"):
            if not is_num(m.get(key)):
                rc |= fail(
                    path,
                    f"metrics.{name}.{key} missing or non-numeric")
        if not isinstance(m.get("log"), int):
            rc |= fail(path, f"metrics.{name}.log not an integer")
        if not isinstance(m.get("constant"), bool):
            rc |= fail(path, f"metrics.{name}.constant not a bool")
        if not isinstance(m.get("formula"), str):
            rc |= fail(path, f"metrics.{name}.formula missing")
        env = m.get("envelope")
        if is_num(env) and env <= 0:
            rc |= fail(path, f"metrics.{name}.envelope not positive")
        if (is_num(m.get("xmin")) and is_num(m.get("xmax")) and
                m["xmin"] >= m["xmax"]):
            rc |= fail(path, f"metrics.{name}: xmin >= xmax")
    return rc


def main(argv):
    if len(argv) < 3 or argv[1] not in ("profile", "chrome",
                                        "timeline", "sweep",
                                        "model"):
        print(__doc__, file=sys.stderr)
        return 2
    kind = argv[1]
    min_coverage = 0.0
    files = []
    for arg in argv[2:]:
        if arg.startswith("--min-coverage="):
            min_coverage = float(arg.split("=", 1)[1])
        else:
            files.append(arg)
    if not files:
        print("no files given", file=sys.stderr)
        return 2

    rc = 0
    for path in files:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            rc |= fail(path, f"unreadable or invalid JSON: {e}")
            continue
        if not isinstance(doc, dict):
            rc |= fail(path, "top level is not an object")
            continue
        if kind == "profile":
            rc |= check_profile(path, doc, min_coverage)
        elif kind == "chrome":
            rc |= check_chrome(path, doc)
        elif kind == "sweep":
            rc |= check_sweep(path, doc)
        elif kind == "model":
            rc |= check_model(path, doc)
        else:
            rc |= check_timeline(path, doc)
        if rc == 0:
            print(f"{path}: ok ({kind})")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
