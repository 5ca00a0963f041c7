#!/usr/bin/env python3
"""Diff bench JSON reports against committed baselines (CI perf gate).

Compares every numeric metric of one or more `BENCH_<name>.json`
candidate files (written by the benches' `--json-out=`) against the
baseline of the same basename under `bench/baselines/`. Metrics are
matched by flattened dotted path. Only paths present in BOTH documents
are compared, so adding a metric to a bench never breaks the gate —
but one-sided paths are never silently dropped either: baseline-only
(dropped) and candidate-only (added) metrics each get a WARN line and
both counts appear in the per-file summary.

Tolerance classes (per-metric relative change, worse direction only):

  sim    model-time-derived metrics (put_us, stream_mb_s, sim events,
         coverage): deterministic given the seed, so tight —
         fail beyond --fail-pct (default 15), warn beyond --warn-pct
         (default 5).
  host   host wall-clock metrics (every path under speed., wall_s,
         wall_ms, ratio, events_per_sec, speedup): noisy across CI
         machines — fail only beyond --host-fail-pct (default 50),
         never warn.
  count  integer event counts (events, traces, retransmits, puts,
         bytes): differences mean the workload changed, not a perf
         regression — report as info, never fail.

Direction matters: higher-is-better metrics (*_per_sec, *_mb_s,
coverage, speedup*) only regress when they drop; lower-is-better
metrics (*_us, *_ms, wall_s, ratio) when they rise. Improvements are
reported but never gate.

Usage:
  bench_compare.py [--baseline-dir=DIR] [--fail-pct=P] [--warn-pct=P]
                   [--host-fail-pct=P] [--tol=REGEX:PCT ...] FILE...

`--tol=REGEX:PCT` overrides the fail threshold for metrics whose
`<file-stem>.<dotted.path>` matches REGEX (first match wins).

Exit status: 1 when any metric fails, when a baseline is missing, or
when either file is unreadable or not valid JSON (a renamed bench or
a corrupted baseline must fail the gate loudly, never skip it);
0 otherwise (warnings do not fail). Standard library only.
"""

import json
import os
import re
import sys

HOST_PAT = re.compile(
    r"(^|\.)speed\."
    r"|(^|\.)(wall_s|wall_ms|events_per_sec|ratio|speedup[^.]*)$")
HIGHER_BETTER_PAT = re.compile(
    r"(^|\.)([^.]*(per_sec|mb_s)|coverage[^.]*|speedup[^.]*)$")
LOWER_BETTER_PAT = re.compile(
    r"(^|\.)([^.]*(_us|_ms)|wall_s|ratio)$")


def flatten(doc, prefix=""):
    """Numeric leaves of a nested JSON object as {dotted.path: value}."""
    out = {}
    if isinstance(doc, dict):
        for k, v in doc.items():
            p = f"{prefix}.{k}" if prefix else k
            out.update(flatten(v, p))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out[prefix] = float(doc)
    return out


def classify(path):
    if HOST_PAT.search(path):
        return "host"
    if HIGHER_BETTER_PAT.search(path) or LOWER_BETTER_PAT.search(path):
        return "sim"
    return "count"


def regression_pct(path, base, cand):
    """Relative change in the *worse* direction, as a percentage.

    Positive = regressed, negative = improved, None = not a rate or
    latency metric (counts have no worse direction).
    """
    if base == 0:
        return None
    change = (cand - base) / abs(base) * 100.0
    if HIGHER_BETTER_PAT.search(path):
        return -change
    if LOWER_BETTER_PAT.search(path):
        return change
    return None


def load_metrics(path, role):
    """Flattened metrics of one JSON file, or None with a FAIL line.

    Never raises for a bad file: a missing, unreadable or unparsable
    document prints a one-line diagnosis naming the file and its role
    (candidate/baseline) so the gate fails with a clear reason rather
    than a traceback or a silent skip.
    """
    try:
        with open(path, encoding="utf-8") as f:
            return flatten(json.load(f))
    except FileNotFoundError:
        print(f"FAIL  {role} {path}: file not found"
              + (" — regenerate it with the bench's --json-out= and "
                 "commit it" if role == "baseline" else ""))
    except OSError as e:
        print(f"FAIL  {role} {path}: unreadable: {e}")
    except json.JSONDecodeError as e:
        print(f"FAIL  {role} {path}: invalid JSON: {e}")
    return None


def compare_file(path, baseline_dir, opts):
    name = os.path.basename(path)
    base_path = os.path.join(baseline_dir, name)
    cand = load_metrics(path, "candidate")
    base = load_metrics(base_path, "baseline")
    if cand is None or base is None:
        return 1

    stem = re.sub(r"^BENCH_|\.json$", "", name)
    shared = sorted(set(cand) & set(base))
    # Paths on one side only are never silently intersected away: a
    # dropped metric is how a renamed key or a lost measurement pass
    # hides from the gate, an added one is a baseline waiting to be
    # regenerated. Both get loud WARN lines and show up in the
    # summary count.
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    if only_base:
        print(f"WARN  {name}: {len(only_base)} baseline metrics "
              f"dropped from candidate (not compared): "
              f"{', '.join(only_base[:5])}"
              f"{' ...' if len(only_base) > 5 else ''}")
    if only_cand:
        print(f"WARN  {name}: {len(only_cand)} candidate metrics "
              f"missing from baseline (not gated): "
              f"{', '.join(only_cand[:5])}"
              f"{' ...' if len(only_cand) > 5 else ''}")
    rc = 0
    for p in shared:
        b, c = base[p], cand[p]
        cls = classify(p)
        reg = regression_pct(p, b, c)
        fail_pct = opts["host_fail"] if cls == "host" \
            else opts["fail"]
        for pat, pct in opts["overrides"]:
            if pat.search(f"{stem}.{p}"):
                fail_pct = pct
                break
        label = f"{name}:{p}"
        if reg is None or cls == "count":
            if b != c:
                print(f"INFO  {label}: {b:g} -> {c:g} ({cls})")
            continue
        if reg > fail_pct:
            print(f"FAIL  {label}: {b:g} -> {c:g} "
                  f"(regressed {reg:.1f}% > {fail_pct:g}% allowed, "
                  f"class {cls})")
            rc = 1
        elif cls == "sim" and reg > opts["warn"]:
            print(f"WARN  {label}: {b:g} -> {c:g} "
                  f"(regressed {reg:.1f}%)")
        elif reg < -opts["warn"]:
            print(f"GOOD  {label}: {b:g} -> {c:g} "
                  f"(improved {-reg:.1f}%)")
    if rc == 0:
        print(f"OK    {name}: {len(shared)} metrics within "
              f"tolerance ({len(only_base)} dropped, "
              f"{len(only_cand)} added)")
    return rc


def main(argv):
    baseline_dir = "bench/baselines"
    opts = {"fail": 15.0, "warn": 5.0, "host_fail": 50.0,
            "overrides": []}
    files = []
    for arg in argv[1:]:
        if arg.startswith("--baseline-dir="):
            baseline_dir = arg.split("=", 1)[1]
        elif arg.startswith("--fail-pct="):
            opts["fail"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--warn-pct="):
            opts["warn"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--host-fail-pct="):
            opts["host_fail"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--tol="):
            spec = arg.split("=", 1)[1]
            pat, _, pct = spec.rpartition(":")
            if not pat:
                print(f"--tol wants REGEX:PCT, got '{spec}'",
                      file=sys.stderr)
                return 2
            opts["overrides"].append((re.compile(pat), float(pct)))
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        else:
            files.append(arg)
    if not files:
        print(__doc__, file=sys.stderr)
        return 2

    rc = 0
    for path in files:
        rc |= compare_file(path, baseline_dir, opts)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
