#!/usr/bin/env python3
"""Trend-tracked BENCH history: append fresh BENCH_*.json to a ledger.

bench_check.py *gates* each run against the checked-in baselines;
this script *remembers* each run. Every invocation appends one JSON
line to ``bench/history.jsonl``::

    {"sha": "<git HEAD>", "timestamp": "<UTC ISO-8601>",
     "src_lines": <newlines in src/**/*.cpp|hpp>,
     "artifacts": {"BENCH_planner": {...}, "BENCH_serve": {...}, ...}}

The file is append-only — lines are never rewritten, so the history
survives baseline refreshes and stays trivially diffable. Raw
wall-clock numbers that the gate deliberately ignores (they vary with
the host) are exactly what the history keeps: across many commits on
the same CI runner class they chart the trend a one-shot gate cannot
see. ``src_lines`` is counted exactly as perfbench/run.py counts it, so
the size of ``src/`` sits next to the perf trend. CI uploads the
ledger as a build artifact after appending.

Exit status: 0 after appending; 1 when no BENCH_*.json artifacts were
found (a run that produced nothing must not log a hollow entry).

Usage:
    bench_history.py [--fresh-dir build] [--history bench/history.jsonl]
                     [--sha SHA]
"""

import argparse
import datetime
import glob
import json
import os
import subprocess
import sys


def git_head(repo_root):
    """Current commit SHA, or "unknown" outside a usable git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def src_lines(repo_root):
    """Newlines in src/'s .cpp/.hpp files (perfbench/run.py's count)."""
    total = 0
    for top, _, files in os.walk(os.path.join(repo_root, "src")):
        for name in files:
            if name.endswith((".cpp", ".hpp")):
                with open(os.path.join(top, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def main():
    parser = argparse.ArgumentParser(
        description="Append fresh BENCH_*.json artifacts to the "
        "bench history ledger."
    )
    parser.add_argument(
        "--fresh-dir",
        default="build",
        help="directory holding the fresh BENCH_*.json (default: build)",
    )
    parser.add_argument(
        "--history",
        default="bench/history.jsonl",
        help="append-only ledger path (default: bench/history.jsonl)",
    )
    parser.add_argument(
        "--sha",
        default=None,
        help="commit identifier to stamp (default: git rev-parse HEAD)",
    )
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    artifacts = {}
    for path in sorted(glob.glob(os.path.join(args.fresh_dir, "BENCH_*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            with open(path) as f:
                artifacts[name] = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_history: skipping {path}: {err}", file=sys.stderr)
    if not artifacts:
        print(
            f"bench_history: no BENCH_*.json under {args.fresh_dir}; "
            "nothing to record",
            file=sys.stderr,
        )
        return 1

    entry = {
        "sha": args.sha if args.sha else git_head(repo_root),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds")
        .replace("+00:00", "Z"),
        "src_lines": src_lines(repo_root),
        "artifacts": artifacts,
    }
    history_dir = os.path.dirname(args.history)
    if history_dir:
        os.makedirs(history_dir, exist_ok=True)
    # One json.dumps per entry keeps each line self-contained: a torn
    # append (or a merge conflict) damages one line, not the ledger.
    with open(args.history, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    print(
        f"bench_history: appended {len(artifacts)} artifact(s) "
        f"@ {entry['sha'][:12]} (src_lines={entry['src_lines']}) "
        f"to {args.history}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
