// Latency-attribution profiler.
//
// Consumes a TraceDump after a run and reconstructs, for every completed
// invocation, the critical path from kRequestSent to kCallCompleted as a
// gapless sequence of phase boundaries.  Consecutive boundaries telescope,
// so the per-phase durations of one chain sum *exactly* to that call's
// end-to-end latency; the report then aggregates chains into per-phase
// percentiles grouped by (binding, invocation mode) and flags the dominant
// phase.
//
// Phases (see obs::phase in names.hpp):
//   marshal          request/reply construction + colocated hand-off
//   credit_wait      flow-control: waiting for an order-window send credit
//   wire             DATA message network transit (ship -> FIFO ingest)
//   order_wait       holdback: ingest -> ordered release to the app layer
//   cpu_wait         CPU-queue time before forwarding / execution begins
//   execution        servant execution proper (packed into the trace)
//   reply_collection gathered-replies bookkeeping and final hand-off
//
// Self-validation: the dump embeds independently measured histogram totals
// (TraceExpectation); the profiler reconciles its trace-derived sums
// against them and reports a >1% relative mismatch as an error — a
// reconciliation failure means the tracing is wrong, not the protocol.
// Truncated dumps (dropped > 0) are refused outright.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace newtop::obs {

/// Aggregated durations of one phase over a set of chains.
struct PhaseStats {
    std::uint64_t count{0};  // chains with a non-absent sample of this phase
    std::int64_t sum_us{0};
    std::int64_t p50_us{0};
    std::int64_t p90_us{0};
    std::int64_t p99_us{0};
    std::int64_t max_us{0};
};

/// Chains aggregated per (binding id, invocation mode).
struct ProfileGroup {
    std::uint64_t binding{0};
    std::uint64_t mode{0};  // InvocationMode value from the completion detail
    std::uint64_t chains{0};
    std::int64_t total_us{0};  // sum of end-to-end latencies
    std::map<std::string, PhaseStats> phases;
    std::string dominant;  // phase with the largest positive sum_us; empty if none
};

/// One cross-check of a trace-derived total against an embedded histogram.
struct Reconciliation {
    std::string metric;
    std::uint64_t expected_count{0};
    std::uint64_t actual_count{0};
    std::int64_t expected_sum_us{0};
    std::int64_t actual_sum_us{0};
    bool ok{true};  // counts equal and sums within 1%
};

struct ProfileReport {
    bool ok{false};      // false => `error` says why the dump was refused
    std::string error;

    std::uint64_t invocations{0};   // chains attributed
    std::uint64_t unattributed{0};  // completions whose chain had a gap
    std::map<std::string, PhaseStats> phases;  // across all chains
    std::string dominant;  // as ProfileGroup::dominant, across all chains
    std::vector<ProfileGroup> groups;  // sorted by (binding, mode)

    /// Diagnostic: sequencer DATA-arrival -> ORDER broadcast.  Overlaps
    /// order_wait, so it is reported but never summed into the phases.
    std::uint64_t sequencer_turnaround_count{0};
    std::int64_t sequencer_turnaround_sum_us{0};

    std::vector<Reconciliation> reconciliations;

    /// True when every embedded expectation reconciled (and none failed).
    [[nodiscard]] bool reconciled() const;

    /// Deterministic JSON (integers only), the bench/CI artifact format.
    [[nodiscard]] std::string to_json() const;

    /// Human-readable table for the newtop_prof CLI.
    [[nodiscard]] std::string to_text() const;
};

class LatencyProfiler {
public:
    /// Attribute every completed invocation in the dump.  Refuses truncated
    /// input (report.ok = false); reconciliation failures leave ok = true
    /// but reconciled() = false so callers can distinguish "unusable dump"
    /// from "tracing bug".
    [[nodiscard]] ProfileReport analyze(const TraceDump& dump) const;
};

}  // namespace newtop::obs
