#!/usr/bin/env python3
"""Compare two bench artifacts: warn on metric regressions, fail on checks.

Usage: bench_diff.py CURRENT [PREVIOUS] [--threshold PCT] [--strict]

PREVIOUS defaults to the committed baseline at the repository root with the
same file name as CURRENT — the BENCH_*.json artifacts are committed, so
the default diff is "this run vs the trajectory the repo promises".

Every artifact has one schema (written by bench/harness.hpp `Artifact`):

  {"bench": ..., "seed": ...,
   "rows": [{"name": ..., "lower": {metric: value}, "higher": {metric: value},
             "info": {key: value}}, ...],
   "checks": {invariant: true|false}}

For each row and metric in CURRENT the matching PREVIOUS value is compared
in the metric's tagged direction ("lower" or "higher" is better).  A move
the wrong way by more than the threshold (default 10%) prints a WARNING;
the metric diff is advisory, so the exit code stays 0 unless --strict is
given (sim-time numbers are deterministic, so a warning means the *code*
changed, not the machine).  A changed `info` value prints as a note and is
never a regression.  Any check in CURRENT that is not true fails the run
with exit code 1, with or without --strict, and so does a row name that
appears twice in either artifact (rows are matched by name).
"""

import argparse
import collections
import json
import math
import pathlib
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def percent_change(before, now):
    if before == 0:
        return 0.0 if now == 0 else math.copysign(math.inf, now)
    return (now - before) / abs(before) * 100.0


def duplicate_names(artifact):
    counts = collections.Counter(row["name"] for row in artifact.get("rows", []))
    return sorted(name for name, count in counts.items() if count > 1)


def diff_rows(current, previous, threshold):
    """Print every changed metric; return how many regressed past threshold."""
    prev_rows = {row["name"]: row for row in previous.get("rows", [])}
    regressions = 0
    for row in current["rows"]:
        name = row["name"]
        before_row = prev_rows.pop(name, None)
        if before_row is None:
            print(f"{name}: (no previous data)")
            continue
        unchanged = 0
        for direction, worse_sign in (("lower", 1.0), ("higher", -1.0)):
            before_metrics = before_row.get(direction, {})
            for metric, now in row.get(direction, {}).items():
                if metric not in before_metrics:
                    print(f"{name}.{metric}: {now:g} (no previous data)")
                    continue
                before = before_metrics[metric]
                delta = percent_change(before, now)
                line = (f"{name}.{metric}: {before:g} -> {now:g} "
                        f"({delta:+.1f}%, {direction} is better)")
                if worse_sign * delta > threshold:
                    regressions += 1
                    print(f"WARNING: regression over {threshold:g}%: {line}")
                elif delta != 0.0:
                    print(line)
                else:
                    unchanged += 1
            for metric in sorted(before_metrics.keys() - row.get(direction, {}).keys()):
                print(f"  note: {name}.{metric} no longer reported")
        for key, now in row.get("info", {}).items():
            before = before_row.get("info", {}).get(key, now)
            if before != now:
                print(f"  note: {name}.{key} changed: {before} -> {now}")
        print(f"{name}: {unchanged} metrics unchanged (+0.0%)")
    for name in prev_rows:
        print(f"  note: row {name} no longer reported")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("previous", nargs="?", default=None,
                        help="baseline artifact (default: the committed "
                             "repo-root file with CURRENT's name)")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression warning threshold in percent")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when a regression is found")
    args = parser.parse_args()

    previous_path = args.previous
    if previous_path is None:
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        previous_path = repo_root / pathlib.Path(args.current).name
    current = load(args.current)
    if pathlib.Path(previous_path).exists():
        previous = load(previous_path)
    else:
        print(f"no baseline at {previous_path}; checking invariants only")
        previous = {}

    duplicates = [(path, name) for path, artifact in ((args.current, current),
                                                      (previous_path, previous))
                  for name in duplicate_names(artifact)]
    for path, name in duplicates:
        print(f"DUPLICATE row name: {name} in {path}")
    if duplicates:
        return 1

    regressions = diff_rows(current, previous, args.threshold)
    failed = [name for name, holds in current.get("checks", {}).items() if holds is not True]
    for name in failed:
        print(f"FAILED check: {name}")
    print(f"{current.get('bench', args.current)}: {regressions} regression(s) over "
          f"{args.threshold:g}%, {len(failed)} of {len(current.get('checks', {}))} "
          f"check(s) failed")
    return 1 if failed or (regressions and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
