#!/usr/bin/env python3
"""Render EXPERIMENTS.md's numeric tables from the committed BENCH_*.json.

    python3 scripts/experiments_tables.py           # rewrite the tables in place
    python3 scripts/experiments_tables.py --check   # exit 1 if any table is stale

Each generated table sits between a start marker naming it and an end
marker:

    <!-- table: graphs_1_4 -->
    | ... |
    <!-- end table -->

Everything between the two markers is rewritten from the artifacts; the
prose around them is left alone.  The --check mode is a tier-1 test, so a
change that moves a BENCH row and forgets the doc fails the suite.  --doc
and --artifacts point the script at other files (its own test does).
"""
import argparse
import difflib
import json
import math
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
START = re.compile(r"^<!-- table: ([a-z0-9_]+) -->$")
END = "<!-- end table -->"
# A row's buckets (bench/harness.hpp ArtifactRow); "host" is optional.  A
# table that quotes a host value goes stale on every run on another machine.
SECTIONS = ("lower", "higher", "info", "host")


def sig3(value):
    """Three significant figures, trailing zeros kept (0.852, 11.3, 10.0)."""
    if value == 0:
        return "0"
    decimals = max(0, 2 - int(math.floor(math.log10(abs(value)))))
    return "%.*f" % (decimals, value)


def kilo(value):
    """A count in thousands, three significant figures (5.21k, 116k)."""
    return sig3(value / 1000.0) + "k"


def whole(value):
    return "%d" % round(value)


def spread(values, fmt):
    """One value, or the lowest and highest of several (510–512)."""
    low, high = fmt(min(values)), fmt(max(values))
    return low if low == high else low + "–" + high


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


class Artifacts:
    def __init__(self, directory):
        self.rows = {}
        for bench in ("paper", "saturation", "latency_breakdown", "reconfig", "gray_failure"):
            with open(os.path.join(directory, "BENCH_%s.json" % bench)) as f:
                self.rows[bench] = {row["name"]: row for row in json.load(f)["rows"]}

    def get(self, bench, name, metric):
        row = self.rows[bench][name]
        for section in SECTIONS:
            if metric in row.get(section, {}):
                return row[section][metric]
        raise KeyError("%s: row %s has no %s" % (bench, name, metric))

    def has(self, bench, name, metric):
        row = self.rows[bench][name]
        return any(metric in row.get(section, {}) for section in SECTIONS)


def rr(setting, servers, clients, binding, mode, order="asymmetric"):
    return "rr_%s_s%d_c%d_%s_%s_%s_cs-%s_seed1" % (setting, servers, clients, binding, mode,
                                                   order, order)


def ms_rps(a, name):
    return "%s / %s" % (sig3(a.get("paper", name, "latency_ms")),
                        whole(a.get("paper", name, "req_per_s")))


def ms_rps_msgs(a, name):
    return "%s / %s" % (ms_rps(a, name), kilo(a.get("paper", name, "wire_msgs")))


def table1(a):
    paths = [("client & server, distinct LAN nodes", "≈ 1 ms", "corba_lan"),
             ("Pisa → Newcastle", "≈ 11.6 ms (29 ms / 2.5)", "corba_pisa-newcastle"),
             ("London → Newcastle", "between LAN and Pisa", "corba_london-newcastle"),
             ("Pisa → London", "between the two WAN rows", "corba_pisa-london")]
    return table(["Path", "Paper anchor", "Measured latency (ms)", "Measured req/s"],
                 [[path, anchor, sig3(a.get("paper", name, "timed_request_ms")),
                   whole(a.get("paper", name, "req_per_s"))] for path, anchor, name in paths])


def graphs_1_4(a):
    rows = []
    for label, setting, counts in (("LAN (graphs 1–2)", "lan", (1, 4, 20)),
                                   ("distant clients (graphs 3–4)", "distant-clients",
                                    (1, 7, 20))):
        for i, clients in enumerate(counts):
            name = rr(setting, 1, clients, "open-restricted", "wait-first")
            rows.append([label if i == 0 else "", str(clients),
                         sig3(a.get("paper", name, "latency_ms")),
                         whole(a.get("paper", name, "req_per_s"))])
    return table(["Setting", "Clients", "Latency (ms)", "Throughput (req/s)"], rows)


def graphs_5_10(a):
    rows = []
    for label, setting in (("LAN (5–6)", "lan"), ("distant clients (7–8)", "distant-clients"),
                           ("geo-distributed (9–10)\\*", "geo-distributed")):
        for i, clients in enumerate((1, 20)):
            rows.append([label if i == 0 else "", str(clients),
                         ms_rps(a, rr(setting, 3, clients, "open-restricted-async",
                                      "wait-first")),
                         ms_rps(a, rr(setting, 1, clients, "open-restricted", "wait-first"))])
    return table(["Setting", "Clients", "Optimised (ms / rps)", "Non-replicated (ms / rps)"],
                 rows)


def graphs_11_16(a):
    rows = []
    for label, setting in (("LAN (11–12)", "lan"),
                           ("distant clients (13–14)", "distant-clients"),
                           ("geo (15–16)", "geo-distributed")):
        for i, clients in enumerate((1, 10, 20)):
            cells = [label if i == 0 else "", str(clients)]
            for binding in ("closed", "open-restricted"):
                name = rr(setting, 3, clients, binding, "wait-all")
                cells.append("%s / %d" % (ms_rps_msgs(a, name),
                                          a.get("paper", name, "clients_finished")))
            rows.append(cells)
    return table(["Setting", "Clients", "Closed (ms / rps / wire msgs / finished)",
                  "Open (ms / rps / wire msgs / finished)"], rows)


def peers(a):
    rows = []
    for label, where in (("geo (graphs 17–18)", "geo-distributed"), ("LAN (§5.2 text)", "lan")):
        for i, members in enumerate((2, 6, 10)):
            cells = [label if i == 0 else "", str(members)]
            for order in ("symmetric", "asymmetric"):
                name = "peer_%s_m%d_%s_seed13" % (where, members, order)
                cells.append("%s / %s" % (sig3(a.get("paper", name, "deliver_ms")),
                                          whole(a.get("paper", name, "group_msg_per_s"))))
            rows.append(cells)
    return table(["Where", "Members", "Symmetric (ms / msg/s)", "Asymmetric (ms / msg/s)"], rows)


def ordering_ablation(a):
    rows = []
    for label, binding, order in (("closed + symmetric", "closed", "symmetric"),
                                  ("closed + asymmetric", "closed", "asymmetric"),
                                  ("open + symmetric", "open-restricted", "symmetric"),
                                  ("open + asymmetric", "open-restricted", "asymmetric")):
        name = rr("lan", 3, 8, binding, "wait-all", order)
        rows.append([label, "8", sig3(a.get("paper", name, "latency_ms")),
                     whole(a.get("paper", name, "req_per_s")),
                     kilo(a.get("paper", name, "wire_msgs"))])
    return table(["Config", "Clients", "Latency ms", "req/s", "wire msgs"], rows)


def design_ablation(a):
    rows = []
    for label, setting in (("LAN", "lan"), ("distant clients", "distant-clients")):
        for i, clients in enumerate((1, 8)):
            rows.append([label if i == 0 else "", str(clients)] +
                        [ms_rps_msgs(a, rr(setting, 3, clients, binding, "wait-first"))
                         for binding in ("open", "open-restricted", "open-restricted-async")])
    return table(["Setting", "Clients", "Plain (ms / rps / wire msgs)", "Restricted",
                  "Restricted + async"], rows)


def mttr(a):
    rows = []
    for label, where, setting in (("LAN", "all Newcastle", "lan"),
                                  ("WAN (geo)", "Newcastle/London/Pisa, client London",
                                   "geo-distributed")):
        names = ["mttr_%s_r3_seed%d" % (setting, seed) for seed in (1, 2, 3)]

        def over(metric, fmt):
            return spread([a.get("paper", n, metric) for n in names], fmt)

        rows.append([label, where, over("mttr_mean_ms", whole), over("mttr_min_ms", whole),
                     over("mttr_max_ms", whole), over("recoveries", whole),
                     over("completions", kilo)])
    return table(["Setting", "Replicas / client", "MTTR mean ms", "min ms", "max ms",
                  "recoveries", "client calls"], rows)


def saturation(a):
    rows = []
    for label, name in (("unbatched (window 0)", "unbatched"),
                        ("batched (window 16, batch 64)", "batched")):
        rows.append([label, kilo(a.get("saturation", name, "invocations_per_sec")),
                     kilo(a.get("saturation", name, "wire_messages")),
                     kilo(a.get("saturation", name, "delivered"))])
    return table(["Mode", "invocations/sec", "wire messages (5 s)", "delivered"], rows)


PHASES = ("marshal", "credit_wait", "wire", "order_wait", "cpu_wait", "execution",
          "reply_collection")


def latency_breakdown(a):
    rows = []
    for label, name in (("non-replicated, LAN, asym, wait-first", "nonreplicated_lan"),
                        ("non-replicated, WAN, asym, wait-first", "nonreplicated_wan"),
                        ("replicated ×3, LAN, asym, wait-all", "replicated_lan_asym"),
                        ("replicated ×3, LAN, sym, wait-all", "replicated_lan_sym"),
                        ("replicated ×3, WAN, asym, wait-all", "replicated_wan_asym"),
                        ("replicated ×3, WAN, sym, wait-all", "replicated_wan_sym")):
        sums = {p: a.get("latency_breakdown", name, p + "_sum_us") for p in PHASES}
        total = float(sum(sums.values()))
        shares = sorted(((round(100 * v / total), p) for p, v in sums.items()),
                        key=lambda s: (-s[0], PHASES.index(s[1])))
        rows.append([label, sig3(a.get("latency_breakdown", name, "mean_latency_ms")) + " ms",
                     a.get("latency_breakdown", name, "dominant"),
                     ", ".join("%s %d%%" % (p, pct) for pct, p in shares if pct >= 5)])
    return table(["Config", "Mean latency", "Dominant phase",
                  "Breakdown (phases with 5% or more)"], rows)


def reconfig(a):
    rows = []
    for label, name in (("steady symmetric", "steady_symmetric"),
                        ("through switch", "through_switch"),
                        ("steady asymmetric", "steady_asymmetric")):
        rows.append([label, whole(a.get("reconfig", name, "calls"))] +
                    [sig3(a.get("reconfig", name, m)) + " ms"
                     for m in ("mean_latency_ms", "p50_latency_ms", "p99_latency_ms")])
    return table(["Window", "Calls", "Mean", "p50", "p99"], rows)


def gray_failure(a):
    factors = (1, 2, 4, 8)

    def detection(detector, f):
        name = "%s_x%d" % (detector, f)
        if not a.has("gray_failure", name, "detection_ms"):
            return "—"
        return sig3(a.get("gray_failure", name, "detection_ms")) + " ms"

    rows = []
    for label, detector in (("φ-accrual", "phi"), ("fixed", "fixed")):
        rows.append([label + " false suspicions"] +
                    [whole(a.get("gray_failure", "%s_x%d" % (detector, f), "false_suspicions"))
                     for f in factors])
    for label, detector in (("φ-accrual", "phi"), ("fixed", "fixed")):
        rows.append([label + " detection"] + [detection(detector, f) for f in factors])
    return table(["Detector"] + ["F=%d" % f for f in factors], rows)


TABLES = {
    "table1": table1,
    "graphs_1_4": graphs_1_4,
    "graphs_5_10": graphs_5_10,
    "graphs_11_16": graphs_11_16,
    "peers": peers,
    "ordering_ablation": ordering_ablation,
    "design_ablation": design_ablation,
    "mttr": mttr,
    "saturation": saturation,
    "latency_breakdown": latency_breakdown,
    "reconfig": reconfig,
    "gray_failure": gray_failure,
}


def render(text, artifacts):
    """The document with every marked table regenerated; raises on bad markers."""
    out, seen, lines, i = [], set(), text.split("\n"), 0
    while i < len(lines):
        out.append(lines[i])
        match = START.match(lines[i])
        i += 1
        if not match:
            continue
        name = match.group(1)
        if name not in TABLES:
            raise ValueError("unknown table %r" % name)
        if name in seen:
            raise ValueError("table %r appears twice" % name)
        seen.add(name)
        while i < len(lines) and lines[i] != END:
            i += 1
        if i == len(lines):
            raise ValueError("table %r has no end marker" % name)
        out.extend(TABLES[name](artifacts))
    missing = sorted(set(TABLES) - seen)
    if missing:
        raise ValueError("tables missing from the document: %s" % ", ".join(missing))
    return "\n".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1, printing a diff, if any table is stale")
    parser.add_argument("--doc", default=os.path.join(ROOT, "EXPERIMENTS.md"))
    parser.add_argument("--artifacts", default=ROOT, help="directory of the BENCH_*.json")
    args = parser.parse_args()
    with open(args.doc, encoding="utf-8") as f:
        text = f.read()
    try:
        fresh = render(text, Artifacts(args.artifacts))
    except (ValueError, KeyError) as err:
        print("experiments_tables: %s" % err, file=sys.stderr)
        return 2
    if fresh == text:
        return 0
    if args.check:
        sys.stdout.writelines(difflib.unified_diff(
            text.splitlines(True), fresh.splitlines(True), args.doc, "regenerated"))
        print("experiments_tables: %s is stale; run scripts/experiments_tables.py" % args.doc,
              file=sys.stderr)
        return 1
    with open(args.doc, "w", encoding="utf-8") as f:
        f.write(fresh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
