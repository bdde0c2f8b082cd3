#!/usr/bin/env python3
"""Compare two bench artifacts: fail on sim drift and on failed checks.

Usage: bench_diff.py CURRENT [PREVIOUS]

PREVIOUS defaults to the committed baseline at the repository root with the
same file name as CURRENT — the BENCH_*.json artifacts are committed, so
the default diff is "this run vs the trajectory the repo promises".

Every artifact has one schema (written by bench/harness.hpp `Artifact`):

  {"bench": ..., "seed": ...,
   "rows": [{"name": ..., "lower": {metric: value}, "higher": {metric: value},
             "info": {key: value}, "host": {metric: value}}, ...],
   "checks": {invariant: true|false}}

"lower", "higher" and "info" hold simulation results.  The simulation is
seeded and wall-clock free, so the same code gives the same values on any
machine and in any build tree: a sim value in PREVIOUS that differs in
CURRENT, or that CURRENT no longer reports, is DRIFT and fails the run
(exit 1).  A change that moves sim results commits the refreshed baselines
with it.  "host" metrics (the optional fourth bucket) measure the machine
running the simulation and only print as notes.  A row or metric that
PREVIOUS lacks prints "(no previous data)" and passes.  Any check in CURRENT
that is not true fails the run, and so does a row name that appears twice
in either artifact (rows are matched by name).
"""

import argparse
import collections
import json
import math
import pathlib
import sys

SIM_BUCKETS = ("lower", "higher", "info")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def percent_change(before, now):
    if before == 0:
        return 0.0 if now == 0 else math.copysign(math.inf, now)
    return (now - before) / abs(before) * 100.0


def describe(before, now, bucket):
    """One value's move, with its percent and direction when numeric."""
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (before, now))
    if not numeric:
        return f"{before} -> {now} ({bucket})"
    delta = percent_change(before, now)
    direction = f", {bucket} is better" if bucket in ("lower", "higher") else f", {bucket}"
    return f"{before:g} -> {now:g} ({delta:+.1f}%{direction})"


def duplicate_names(artifact):
    counts = collections.Counter(row["name"] for row in artifact.get("rows", []))
    return sorted(name for name, count in counts.items() if count > 1)


def diff_rows(current, previous):
    """Print every changed value; return how many sim values drifted."""
    prev_rows = {row["name"]: row for row in previous.get("rows", [])}
    drifts = 0
    for row in current["rows"]:
        name = row["name"]
        before_row = prev_rows.pop(name, None)
        if before_row is None:
            print(f"{name}: (no previous data)")
            continue
        unchanged = 0
        for bucket in SIM_BUCKETS:
            before_values = before_row.get(bucket, {})
            for key, now in row.get(bucket, {}).items():
                if key not in before_values:
                    print(f"{name}.{key}: {now} (no previous data)")
                elif before_values[key] != now:
                    drifts += 1
                    print(f"DRIFT: {name}.{key}: {describe(before_values[key], now, bucket)}")
                else:
                    unchanged += 1
            for key in sorted(before_values.keys() - row.get(bucket, {}).keys()):
                drifts += 1
                print(f"DRIFT: {name}.{key} ({bucket}) no longer reported")
        before_host = before_row.get("host", {})
        for metric, now in row.get("host", {}).items():
            if metric in before_host and before_host[metric] != now:
                print(f"  note: host {name}.{metric}: {describe(before_host[metric], now, 'host')}")
        print(f"{name}: {unchanged} sim values unchanged (+0.0%)")
    for name in prev_rows:
        drifts += 1
        print(f"DRIFT: row {name} no longer reported")
    return drifts


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("current")
    parser.add_argument("previous", nargs="?", default=None,
                        help="baseline artifact (default: the committed "
                             "repo-root file with CURRENT's name)")
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

    drifts = diff_rows(current, previous)
    failed = [name for name, holds in current.get("checks", {}).items() if holds is not True]
    for name in failed:
        print(f"FAILED check: {name}")
    print(f"{current.get('bench', args.current)}: {drifts} sim value(s) drifted, "
          f"{len(failed)} of {len(current.get('checks', {}))} check(s) failed")
    return 1 if failed or drifts else 0


if __name__ == "__main__":
    sys.exit(main())
