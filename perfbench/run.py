#!/usr/bin/env python3
"""Build and run the NewTop benchmark.

    python3 perfbench/run.py --workload <peer_flood|geo_invoke|replica_churn>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds
perfbench/ (which compiles the library from ../src) into .bench_build/;
later calls rebuild only what changed.  Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  Exits non-zero, without
printing a result, when the sources are missing, the build fails or a
correctness gate fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "newtop_perfbench")
WORKLOADS = ("peer_flood", "geo_invoke", "replica_churn")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step; its output goes to stderr only if it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-20000:])
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the NewTop sources (src/) are not next to perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], timeout=840)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170, check=False)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within 170 s")
    lines = proc.stdout.decode(errors="replace").splitlines()
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail("the benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the benchmark printed no JSON result")
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        fail("malformed or incorrect result: " + lines[-1])
    check_catalogue(result["metrics"], args.trace)
    print("\n".join(lines))


def check_catalogue(metrics, trace):
    """The reported metrics must be exactly those BENCHMARK.json declares."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in metrics.items()}
    if declared != reported:
        fail("reported metrics differ from BENCHMARK.json: %s"
             % sorted(set(declared.items()) ^ set(reported.items())))


if __name__ == "__main__":
    main()
