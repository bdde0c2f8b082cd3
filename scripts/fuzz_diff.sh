#!/usr/bin/env bash
# Behaviour diff between two builds: run newtop_fuzz on the same seeds of
# every chaos campaign with both, and compare the first line of each run
# (the verdict and the number of events the scenario ran).  A change that
# must leave protocol behaviour alone, such as a host-time optimisation,
# should report no difference: one moved tie-break or one extra message
# changes a seed's event count.
#
# Usage: scripts/fuzz_diff.sh <parent-build> <change-build> [N]
#
#   <parent-build>  build tree of the baseline (holds tools/newtop_fuzz)
#   <change-build>  build tree of the change
#   N               seeds per campaign (default 300)
#
# Campaigns: legacy seeds 1.., reconfig seeds 1000001.. (--reconfig), gray
# seeds 2000001.. (--gray).  Exits 0 when every line matches, 1 on any
# difference (printed as a unified diff), 2 on bad usage.
set -euo pipefail

usage() {
    echo "usage: scripts/fuzz_diff.sh <parent-build> <change-build> [N]" >&2
    exit 2
}

[[ $# -eq 2 || $# -eq 3 ]] || usage
PARENT="$1/tools/newtop_fuzz"
CHANGE="$2/tools/newtop_fuzz"
SEEDS="${3:-300}"
[[ "${SEEDS}" =~ ^[1-9][0-9]*$ ]] || usage
for bin in "${PARENT}" "${CHANGE}"; do
    if [[ ! -x "${bin}" ]]; then
        echo "fuzz_diff: no newtop_fuzz at ${bin}" >&2
        exit 2
    fi
done
# The environment must not switch a campaign's flags under one of the runs.
unset NEWTOP_FUZZ_SEED NEWTOP_FUZZ_RECONFIG NEWTOP_FUZZ_GRAY

# first_lines <binary> <campaign> <base seed> [flag]: one line per seed.
first_lines() {
    local bin="$1" campaign="$2" base="$3"
    shift 3
    local out
    for ((i = 0; i < SEEDS; ++i)); do
        # A failing seed exits non-zero; its first line still compares.
        out="$("${bin}" --seed $((base + i)) "$@" 2>/dev/null || true)"
        echo "${campaign}: ${out%%$'\n'*}"
    done
}

run_all() {
    local bin="$1"
    first_lines "${bin}" legacy 1
    first_lines "${bin}" reconfig 1000001 --reconfig
    first_lines "${bin}" gray 2000001 --gray
}

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT
run_all "${PARENT}" >"${WORK}/parent.txt" &
parent_pid=$!
run_all "${CHANGE}" >"${WORK}/change.txt" &
change_pid=$!
wait "${parent_pid}" "${change_pid}"

if diff -u "${WORK}/parent.txt" "${WORK}/change.txt"; then
    echo "fuzz_diff: ${SEEDS} seeds x 3 campaigns identical"
    exit 0
fi
echo "fuzz_diff: runs differ" >&2
exit 1
