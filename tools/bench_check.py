#!/usr/bin/env python3
"""Bench-regression gate: compare fresh BENCH_*.json against baselines.

ci.sh emits BENCH_planner.json / BENCH_serve.json / BENCH_wire.json as
build artifacts; this script compares the fresh run
against the checked-in baselines under bench/baselines/ and fails
(exit 1) on a regression, which turns the benches from trajectory
*tracking* into a CI *gate*.

What is compared (and what deliberately is not):

- ``exact`` checks pin deterministic counters — steps simulated, cache
  misses, answer mismatches, trace shape. These must never drift: a
  change is either an intentional protocol/workload change (refresh the
  baseline) or a broken dedup/memoization invariant.
- ``min_ratio`` checks guard relative speedups (coalesced-vs-serial,
  warm-vs-reference). They may regress by at most ``--tolerance``
  (default 25%) before the gate fails. Ratios of two timings taken on
  the same machine in the same run are far more stable than the
  timings themselves; every gated ratio is the median of paired,
  order-alternating trials (bench_util.hpp's ``bench::measure``), with
  its p10/p90 spread under ``spread``.
- Raw wall-clock numbers (``timings_ms``...) are *not* gated: they vary
  with the host and would make the gate flaky. The JSON artifacts keep
  them for trend dashboards.

Refreshing baselines after an intentional change::

    ./ci.sh                       # produces build/BENCH_*.json
    python3 tools/bench_check.py --update
    git add bench/baselines/ && git commit

Tolerance can be widened per run without editing the script:
``BENCH_CHECK_TOLERANCE=0.5 ./ci.sh`` (the env var is the default for
``--tolerance``).

Usage:
    bench_check.py [--fresh-dir build] [--baseline-dir bench/baselines]
                   [--tolerance 0.25] [--update]
"""

import argparse
import json
import os
import sys

# (file, json.path, mode) — mode is "exact" or "min_ratio".
CHECKS = {
    "BENCH_planner.json": [
        ("sweep_configs", "exact"),
        ("gpu_count", "exact"),
        ("planner_stats.steps_simulated", "exact"),
        ("planner_stats.step_cache_misses", "exact"),
        ("speedups_vs_reference.warm_sweep", "min_ratio"),
        ("speedups_vs_reference.cold_sweep_serial", "min_ratio"),
    ],
    "BENCH_serve.json": [
        ("trace_requests", "exact"),
        ("distinct_requests", "exact"),
        ("answer_mismatches", "exact"),
        ("service_stats.executed", "exact"),
        ("service_stats.steps_simulated", "exact"),
        ("speedup_coalesced_vs_serial", "min_ratio"),
    ],
    # BENCH_wire.json also self-gates (bench_wire exits non-zero on a
    # byte mismatch or a paired median binary/JSON speedup below 1.3x);
    # the baseline pins the deterministic trace shape, the zero-mismatch
    # ledger, and the codec speedup ratio.
    "BENCH_wire.json": [
        ("requests_per_mode", "exact"),
        ("distinct_step_configs", "exact"),
        ("byte_mismatches", "exact"),
        ("failed_connections", "exact"),
        ("service_stats.steps_simulated", "exact"),
        ("net_stats.binary_requests", "exact"),
        ("net_stats.wire_poisoned", "exact"),
        ("speedup_binary_vs_json", "min_ratio"),
    ],
}


def lookup(doc, path):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_file(name, fresh_path, baseline_path, tolerance):
    """Returns a list of failure strings (empty = pass)."""
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    failures = []
    for path, mode in CHECKS[name]:
        base_value = lookup(baseline, path)
        fresh_value = lookup(fresh, path)
        if base_value is None:
            # Baseline predates the metric: not a regression. The next
            # --update picks it up.
            continue
        if fresh_value is None:
            failures.append(f"{name}:{path}: missing from fresh run "
                            f"(baseline has {base_value})")
            continue
        if mode == "exact":
            if fresh_value != base_value:
                failures.append(
                    f"{name}:{path}: expected {base_value}, "
                    f"got {fresh_value} (exact match required; "
                    f"refresh baselines if intentional)")
        elif mode == "min_ratio":
            floor = base_value * (1.0 - tolerance)
            if fresh_value < floor:
                failures.append(
                    f"{name}:{path}: {fresh_value:.3g} fell below "
                    f"{floor:.3g} (baseline {base_value:.3g} minus "
                    f"{tolerance:.0%} tolerance)")
        else:  # pragma: no cover - table typo guard
            failures.append(f"{name}:{path}: unknown mode {mode}")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="Compare BENCH_*.json artifacts against baselines")
    parser.add_argument("--fresh-dir", default="build",
                        help="directory with the fresh BENCH_*.json")
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory with the checked-in baselines")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_CHECK_TOLERANCE", "0.25")),
        help="allowed relative drop for min_ratio checks "
             "(default 0.25, or $BENCH_CHECK_TOLERANCE)")
    parser.add_argument("--update", action="store_true",
                        help="copy fresh artifacts over the baselines "
                             "instead of checking")
    args = parser.parse_args()

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        updated = 0
        for name in CHECKS:
            fresh_path = os.path.join(args.fresh_dir, name)
            if not os.path.exists(fresh_path):
                print(f"bench_check: skip {name} (no fresh artifact)")
                continue
            with open(fresh_path) as f:
                doc = json.load(f)
            with open(os.path.join(args.baseline_dir, name), "w") as f:
                json.dump(doc, f, indent=2)
                f.write("\n")
            print(f"bench_check: baseline {name} refreshed")
            updated += 1
        return 0 if updated else 1

    failures = []
    checked = 0
    for name in CHECKS:
        fresh_path = os.path.join(args.fresh_dir, name)
        baseline_path = os.path.join(args.baseline_dir, name)
        if not os.path.exists(baseline_path):
            print(f"bench_check: skip {name} (no baseline checked in)")
            continue
        if not os.path.exists(fresh_path):
            failures.append(f"{name}: baseline exists but the fresh "
                            f"artifact {fresh_path} is missing")
            continue
        file_failures = check_file(name, fresh_path, baseline_path,
                                   args.tolerance)
        checked += 1
        if file_failures:
            failures.extend(file_failures)
        else:
            print(f"bench_check: {name} within tolerance "
                  f"({args.tolerance:.0%})")

    if failures:
        print("bench_check: REGRESSION", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print("  (intentional change? refresh with: "
              "python3 tools/bench_check.py --update)", file=sys.stderr)
        return 1
    if checked == 0:
        print("bench_check: nothing checked (no baselines?)",
              file=sys.stderr)
        return 1
    print("bench_check: all gates green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
