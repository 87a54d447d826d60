#!/usr/bin/env python3
"""Bench regression gate: fresh results vs the committed baselines.

Compares each BENCH_<name>.json in the results directory against the
baseline committed at HEAD (``git show HEAD:bench/BENCH_<name>.json``) and
fails when throughput regressed by more than the threshold.

Throughput is only compared like with like: ``ops_per_sec`` is gated when
the fresh run and the baseline record the same ``cores`` (hardware threads,
written by bench_util's WriteBenchJson). Otherwise the pair is reported as
not comparable, naming the baseline file to re-commit from a run on this
host; a baseline from a different host is not a regression.

Fresh results are also checked against the observability overhead budget:
every ``*_overhead_pct`` field (the paired plain-vs-instrumented ratios the
micro benches emit, e.g. ``obs_overhead_pct``, ``profiler_overhead_pct``,
and micro_recover's ``wal_overhead_pct`` — the WAL's share of per-action
pipeline CPU) must stay at or below the absolute budget — 3% by default,
per the DESIGN.md §12/§13/§14 contract that the metrics/tracing/profiling
planes and the durability WAL are cheap enough to leave on. This is an
absolute gate on the fresh run, not a baseline comparison: the budget IS
the contract.

    scripts/check_bench.py [results-dir] [--threshold-pct 20]
                           [--overhead-budget-pct 3] [--ref HEAD]

Benches with no committed baseline (new benches) are reported and skipped
for the throughput comparison; the overhead budget still applies to them.
Exit status: 0 = no regression, 1 = at least one bench over threshold or
over the overhead budget, 2 = usage/environment error.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

METRIC = "ops_per_sec"


def repo_root():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        return None


def baseline_for(root, ref, name):
    """The committed BENCH_<name>.json at `ref`, or None if absent."""
    show = subprocess.run(
        ["git", "show", f"{ref}:bench/BENCH_{name}.json"],
        capture_output=True, text=True, cwd=root,
    )
    if show.returncode != 0:
        return None
    try:
        return json.loads(show.stdout)
    except json.JSONDecodeError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results_dir", nargs="?", default=None,
                        help="directory of fresh BENCH_*.json "
                             "(default: <repo>/bench)")
    parser.add_argument("--threshold-pct", type=float, default=20.0,
                        help="max tolerated %s drop, percent" % METRIC)
    parser.add_argument("--overhead-budget-pct", type=float, default=3.0,
                        help="absolute budget for *_overhead_pct fields")
    parser.add_argument("--ref", default="HEAD",
                        help="git ref holding the baselines")
    args = parser.parse_args()

    root = repo_root()
    if root is None:
        print("check_bench: not inside a git checkout", file=sys.stderr)
        return 2
    results_dir = args.results_dir or os.path.join(root, "bench")

    paths = sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json")))
    if not paths:
        print(f"check_bench: no BENCH_*.json under {results_dir}",
              file=sys.stderr)
        return 2

    failed = []
    for path in paths:
        with open(path) as f:
            fresh = json.load(f)
        name = fresh.get("name") or os.path.basename(path)[6:-5]

        # Absolute overhead budget on the fresh run (negative values are
        # pairing noise in the instrumented rep's favour — fine).
        for field, value in sorted(fresh.items()):
            if not field.endswith("_overhead_pct"):
                continue
            try:
                overhead = float(value)
            except (TypeError, ValueError):
                continue
            if overhead > args.overhead_budget_pct:
                failed.append(f"{name}:{field}")
                print(f"  {name:<18} {field}: {overhead:+.2f}%  "
                      f"OVER BUDGET (> {args.overhead_budget_pct:g}%)")
            else:
                print(f"  {name:<18} {field}: {overhead:+.2f}%  "
                      f"within {args.overhead_budget_pct:g}% budget")

        baseline = baseline_for(root, args.ref, name)
        if baseline is None or METRIC not in baseline:
            print(f"  {name:<18} no committed baseline at {args.ref} — skip")
            continue
        base, cur = baseline[METRIC], fresh.get(METRIC, 0.0)
        base_cores, cur_cores = baseline.get("cores"), fresh.get("cores")
        if base_cores is None or cur_cores is None or base_cores != cur_cores:
            print(f"  {name:<18} {METRIC}: {base:>12.1f} -> {cur:>12.1f}  "
                  f"not comparable (baseline {base_cores or '?'} cores, "
                  f"fresh {cur_cores or '?'}) — re-commit "
                  f"bench/BENCH_{name}.json from this run to gate it")
            continue
        if base <= 0:
            print(f"  {name:<18} baseline {METRIC} <= 0 — skip")
            continue
        delta_pct = (cur / base - 1.0) * 100.0
        verdict = "ok"
        if delta_pct < -args.threshold_pct:
            verdict = f"REGRESSION (>{args.threshold_pct:g}% drop)"
            failed.append(name)
        print(f"  {name:<18} {METRIC}: {base:>12.1f} -> {cur:>12.1f}  "
              f"({delta_pct:+.1f}%)  {verdict}")

    if failed:
        print(f"check_bench: FAILED — {', '.join(failed)}", file=sys.stderr)
        return 1
    print("check_bench: all benches within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
