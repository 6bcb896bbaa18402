#!/usr/bin/env python3
"""Diff two BENCH_<name>.json reports (or directories of them).

The repo's benches (bench/) write machine-readable run reports named
BENCH_<name>.json: "values" holds headline numbers (micro benches record
"time_ns/<benchmark>" entries), "phases" holds per-phase wall seconds.
This tool prints per-metric deltas between a baseline and a current run and
exits non-zero when a *timing* metric (time_ns/*, gate/*, or any phase)
regresses by more than the threshold, so CI can gate on it.  Non-timing
values (rewards, curve finals, counters) are reported but never gate: they
are expected to be bit-identical and belong to correctness tests, not perf
thresholds.  gate/* metrics are machine-robust ratios (e.g. micro_delta's
delta-over-full re-score time), so they can be gated with a real threshold
even on noisy shared runners; --gate PCT sets that threshold and forces a
non-zero exit on regression (it overrides --report-only).  A parallel
speedup ratio only means something against a baseline from a machine with
at least as many cores, so --gate also refuses a baseline whose
"hardware_concurrency" value is missing or lower than the current report's.

Usage:
  bench_compare.py BASELINE CURRENT [--threshold PCT] [--report-only]
                   [--gate PCT]

BASELINE and CURRENT are either two BENCH_*.json files or two directories;
directories are matched by file name (only common names are compared).

Typical invocations:
  # Compare a fresh build's micro run against the committed baseline.
  python3 scripts/bench_compare.py bench/baselines/BENCH_micro_nn.json \
      build/bench/BENCH_micro_nn.json
  # Report-only sweep over every committed baseline (CI bench-smoke job).
  python3 scripts/bench_compare.py bench/baselines build/bench --report-only
"""

import argparse
import json
import os
import shutil
import sys

REGRESSION_PREFIXES = ("time_ns/", "phase/", "gate/")


RECORDED = [0]


def record_baseline(label, cur_path, base_path):
    """First run of a new bench: adopt the current report as the baseline."""
    print(f"# {label}: no baseline, recording {cur_path} -> {base_path}")
    os.makedirs(os.path.dirname(base_path) or ".", exist_ok=True)
    shutil.copyfile(cur_path, base_path)
    RECORDED[0] += 1


def load_report(path):
    """Flattens one report; exits with a clear message on malformed input.

    A truncated or hand-mangled baseline would otherwise surface as a bare
    JSONDecodeError traceback, which CI logs bury; name the file instead so
    the fix (re-record or revert the baseline) is obvious.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        sys.exit(f"error: {path} is not valid JSON ({err}); re-record the "
                 f"baseline or revert the file")
    if not isinstance(report, dict):
        sys.exit(f"error: {path} must hold a JSON object "
                 f"(got {type(report).__name__}); re-record the baseline")
    for section in ("values", "phases"):
        if not isinstance(report.get(section, {}), dict):
            sys.exit(f"error: {path}: \"{section}\" must be an object; "
                     f"re-record the baseline")
    flat = {}
    for key, value in report.get("values", {}).items():
        if isinstance(value, (int, float)):
            flat[key] = float(value)
    for key, value in report.get("phases", {}).items():
        if isinstance(value, (int, float)):
            flat["phase/" + key] = float(value)
    return flat


def pair_files(baseline, current):
    """Yields (label, baseline_path, current_path) pairs."""
    if os.path.isfile(current) and not os.path.exists(baseline):
        record_baseline(os.path.basename(current), current, baseline)
        return
    if os.path.isdir(baseline) != os.path.isdir(current):
        sys.exit("error: BASELINE and CURRENT must both be files or both "
                 "be directories")
    if not os.path.isdir(baseline):
        yield os.path.basename(current), baseline, current
        return
    base_files = {f for f in os.listdir(baseline)
                  if f.startswith("BENCH_") and f.endswith(".json")}
    cur_files = {f for f in os.listdir(current)
                 if f.startswith("BENCH_") and f.endswith(".json")}
    for name in sorted(base_files & cur_files):
        yield name, os.path.join(baseline, name), os.path.join(current, name)
    for name in sorted(base_files - cur_files):
        print(f"# {name}: present in baseline only, skipped")
    for name in sorted(cur_files - base_files):
        record_baseline(name, os.path.join(current, name),
                        os.path.join(baseline, name))


def check_cores(label, base, cur):
    """--gate only: exits when the baseline came from a smaller machine."""
    base_cores = base.get("hardware_concurrency")
    cur_cores = cur.get("hardware_concurrency", 0.0)
    if base_cores is None or base_cores < cur_cores:
        recorded = "missing" if base_cores is None else f"{base_cores:g}"
        sys.exit(f"error: {label}: baseline hardware_concurrency is "
                 f"{recorded}, this run has {cur_cores:g}; re-record the "
                 f"baseline on a machine with at least as many cores")


def is_timing(key):
    return key.startswith(REGRESSION_PREFIXES)


def compare(label, base, cur, threshold_pct):
    """Prints the diff table; returns the list of regressed timing metrics."""
    regressions = []
    keys = sorted(set(base) | set(cur))
    print(f"== {label}")
    print(f"{'metric':<58} {'baseline':>14} {'current':>14} {'delta':>9}")
    for key in keys:
        if key not in base or key not in cur:
            where = "baseline" if key in base else "current"
            print(f"{key:<58} {'(only in ' + where + ')':>38}")
            continue
        b, c = base[key], cur[key]
        if b == 0.0:
            delta = "n/a" if c != 0.0 else "+0.0%"
        else:
            delta = f"{100.0 * (c - b) / b:+.1f}%"
        flag = ""
        if is_timing(key) and b > 0.0 and (c - b) / b * 100.0 > threshold_pct:
            flag = "  REGRESSED"
            regressions.append((label, key, b, c))
        print(f"{key:<58} {b:>14.6g} {c:>14.6g} {delta:>9}{flag}")
    return regressions


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="BENCH_*.json file or directory")
    parser.add_argument("current", help="BENCH_*.json file or directory")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="timing regression threshold in percent "
                             "(default: 25)")
    parser.add_argument("--report-only", action="store_true",
                        help="always exit 0 (CI artifact mode)")
    parser.add_argument("--gate", type=float, default=None, metavar="PCT",
                        help="gating mode: sets the threshold to PCT and "
                             "exits non-zero on regression even if "
                             "--report-only was also given")
    args = parser.parse_args()
    if args.gate is not None:
        args.threshold = args.gate
        args.report_only = False

    all_regressions = []
    compared = 0
    for label, base_path, cur_path in pair_files(args.baseline, args.current):
        base, cur = load_report(base_path), load_report(cur_path)
        if args.gate is not None:
            check_cores(label, base, cur)
        all_regressions += compare(label, base, cur, args.threshold)
        compared += 1
    if compared == 0 and RECORDED[0] == 0:
        sys.exit("error: no comparable BENCH_*.json pairs found")
    if compared == 0:
        return  # Everything was freshly recorded; nothing to diff yet.

    if all_regressions:
        print(f"\n{len(all_regressions)} timing metric(s) regressed more "
              f"than {args.threshold:.1f}%:")
        for label, key, b, c in all_regressions:
            print(f"  {label}: {key}  {b:.6g} -> {c:.6g}")
        if not args.report_only:
            sys.exit(1)
        print("(report-only mode: exiting 0)")
    else:
        print(f"\nno timing regressions beyond {args.threshold:.1f}%")


if __name__ == "__main__":
    main()
