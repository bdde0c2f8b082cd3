#include "obs/profiler.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/names.hpp"

namespace newtop::obs {

namespace {

std::string_view reply_metric_for_mode(std::uint64_t mode) {
    switch (mode) {
        case 0: return metric::kInvReplyWaitOneway;
        case 1: return metric::kInvReplyWaitFirst;
        case 2: return metric::kInvReplyWaitMajority;
        case 3: return metric::kInvReplyWaitAll;
        default: return metric::kInvReplyWaitOther;
    }
}

/// Nearest-rank percentile over a sorted sample vector (integer µs).
std::int64_t percentile(const std::vector<std::int64_t>& sorted, std::uint64_t pct) {
    if (sorted.empty()) return 0;
    std::uint64_t rank = (pct * sorted.size() + 99) / 100;
    if (rank == 0) rank = 1;
    if (rank > sorted.size()) rank = sorted.size();
    return sorted[rank - 1];
}

/// One extracted chain: the per-phase durations of a single invocation.
struct Chain {
    std::uint64_t binding{0};
    std::uint64_t mode{0};
    std::int64_t total_us{0};
    std::map<std::string_view, std::int64_t> phase_us;
};

/// Backward critical-path walk from a kCallCompleted event.  `evs` is the
/// trace's events in stream order (stream order is causal order: sim time
/// is monotone and emission follows execution).  Returns false when a
/// boundary the chain needs is missing (e.g. the call was retried across a
/// rebind, or the delivery came out of a view-change cut).
bool walk_chain(const std::vector<const TraceEvent*>& evs, std::size_t completion,
                const std::map<std::uint64_t, TraceKind>& opener, Chain& out) {
    const auto latest = [&](std::size_t before, auto&& pred) -> std::ptrdiff_t {
        for (std::ptrdiff_t p = static_cast<std::ptrdiff_t>(before) - 1; p >= 0; --p) {
            if (pred(*evs[static_cast<std::size_t>(p)])) return p;
        }
        return -1;
    };

    std::size_t cur = completion;
    while (true) {
        const TraceEvent& e = *evs[cur];
        std::ptrdiff_t prev = -1;
        std::string_view bucket;
        switch (e.kind) {
            case TraceKind::kCallCompleted:
                // Closed mode gathers replies at the client itself; open
                // mode completes on the delivered aggregate; a one-way call
                // completes at issue time, directly on its kRequestSent.
                prev = latest(cur, [&](const TraceEvent& p) {
                    return p.kind == TraceKind::kReplyCollected && p.span == e.span &&
                           p.actor == e.actor;
                });
                if (prev < 0) {
                    prev = latest(cur, [&](const TraceEvent& p) {
                        return p.kind == TraceKind::kPayloadDelivered && p.actor == e.actor;
                    });
                }
                if (prev < 0) {
                    prev = latest(cur, [&](const TraceEvent& p) {
                        return p.kind == TraceKind::kRequestSent && p.span == e.span;
                    });
                }
                bucket = phase::kReplyCollection;
                break;
            case TraceKind::kReplyCollected:
                // parent = the execution span that produced the completing
                // reply; its payload either arrived by wire (delivered) or
                // was executed locally (async forwarding).
                prev = latest(cur, [&](const TraceEvent& p) {
                    return p.actor == e.actor && p.span == e.parent &&
                           (p.kind == TraceKind::kPayloadDelivered ||
                            p.kind == TraceKind::kExecutionDone);
                });
                bucket = phase::kReplyCollection;
                break;
            case TraceKind::kAggregateSent:
                prev = latest(cur, [&](const TraceEvent& p) {
                    return p.kind == TraceKind::kReplyCollected && p.span == e.span &&
                           p.actor == e.actor;
                });
                bucket = phase::kReplyCollection;
                break;
            case TraceKind::kPayloadDelivered:
                prev = latest(cur, [&](const TraceEvent& p) {
                    return p.kind == TraceKind::kDataArrived && p.span == e.span &&
                           p.actor == e.actor && p.detail == e.detail;
                });
                bucket = phase::kOrderWait;
                break;
            case TraceKind::kDataArrived:
                // The matching ship happened at the sender, so no actor
                // constraint; (span, packed ref) is unique per ship.
                prev = latest(cur, [&](const TraceEvent& p) {
                    return p.kind == TraceKind::kPayloadShipped && p.span == e.span &&
                           p.detail == e.detail;
                });
                bucket = phase::kWire;
                break;
            case TraceKind::kPayloadShipped:
                prev = latest(cur, [&](const TraceEvent& p) {
                    return p.kind == TraceKind::kMulticastSent && p.span == e.span &&
                           p.actor == e.actor;
                });
                bucket = phase::kCreditWait;
                break;
            case TraceKind::kMulticastSent: {
                // What precedes a multicast depends on whose span it rides:
                // the client's request, the manager's forward/aggregate, or
                // a replica's reply after execution.
                const auto role = opener.find(e.span);
                if (role == opener.end()) return false;  // synthetic sender root
                switch (role->second) {
                    case TraceKind::kRequestSent:
                        prev = latest(cur, [&](const TraceEvent& p) {
                            return p.kind == TraceKind::kRequestSent && p.span == e.span;
                        });
                        break;
                    case TraceKind::kRequestForwarded:
                        prev = latest(cur, [&](const TraceEvent& p) {
                            return (p.kind == TraceKind::kAggregateSent ||
                                    p.kind == TraceKind::kRequestForwarded) &&
                                   p.span == e.span && p.actor == e.actor;
                        });
                        break;
                    case TraceKind::kExecutionBegun:
                        prev = latest(cur, [&](const TraceEvent& p) {
                            return p.kind == TraceKind::kExecutionDone && p.span == e.span &&
                                   p.actor == e.actor;
                        });
                        break;
                    default: return false;
                }
                bucket = phase::kMarshal;
                break;
            }
            case TraceKind::kExecutionDone: {
                prev = latest(cur, [&](const TraceEvent& p) {
                    return p.kind == TraceKind::kExecutionBegun && p.span == e.span &&
                           p.actor == e.actor;
                });
                if (prev < 0) return false;
                // kExecutionBegun fires at CPU-queue time with the pure
                // execution cost packed into its detail; the rest of the
                // begun -> done interval is queueing.
                const TraceEvent& begun = *evs[static_cast<std::size_t>(prev)];
                const std::int64_t delta = e.at - begun.at;
                const auto cost =
                    static_cast<std::int64_t>(execution_detail_cost(begun.detail));
                const std::int64_t exec = std::min(cost, delta);
                out.phase_us[phase::kExecution] += exec;
                out.phase_us[phase::kCpuWait] += delta - exec;
                cur = static_cast<std::size_t>(prev);
                continue;
            }
            case TraceKind::kExecutionBegun:
                // parent = the span the request arrived under: a delivered
                // payload, or the manager's own forward when it executes
                // locally (async forwarding).
                prev = latest(cur, [&](const TraceEvent& p) {
                    return p.actor == e.actor && p.span == e.parent &&
                           (p.kind == TraceKind::kPayloadDelivered ||
                            p.kind == TraceKind::kRequestForwarded);
                });
                bucket = phase::kCpuWait;
                break;
            case TraceKind::kRequestForwarded:
                prev = latest(cur, [&](const TraceEvent& p) {
                    return p.kind == TraceKind::kPayloadDelivered && p.span == e.parent &&
                           p.actor == e.actor;
                });
                bucket = phase::kCpuWait;
                break;
            case TraceKind::kRequestSent:
                out.total_us = evs[completion]->at - e.at;
                return true;
            default:
                return false;
        }
        if (prev < 0) return false;
        out.phase_us[bucket] += e.at - evs[static_cast<std::size_t>(prev)]->at;
        cur = static_cast<std::size_t>(prev);
    }
}

/// Aggregate a set of chains into PhaseStats keyed by phase name.  Every
/// chain contributes one sample per phase (0 when the chain never touched
/// it), so percentiles are comparable across phases.  `dominant` names the
/// phase with the largest positive sum; it stays empty when no phase took
/// any time (no chains at all, for one).
std::map<std::string, PhaseStats> aggregate_phases(const std::vector<const Chain*>& chains,
                                                   std::string& dominant) {
    std::map<std::string, PhaseStats> out;
    std::int64_t best_sum = 0;
    for (const std::string_view name : phase::kAll) {
        std::vector<std::int64_t> samples;
        samples.reserve(chains.size());
        PhaseStats stats;
        for (const Chain* chain : chains) {
            const auto it = chain->phase_us.find(name);
            const std::int64_t v = it == chain->phase_us.end() ? 0 : it->second;
            samples.push_back(v);
            stats.sum_us += v;
        }
        std::sort(samples.begin(), samples.end());
        stats.count = samples.size();
        stats.p50_us = percentile(samples, 50);
        stats.p90_us = percentile(samples, 90);
        stats.p99_us = percentile(samples, 99);
        stats.max_us = samples.empty() ? 0 : samples.back();
        if (stats.sum_us > best_sum) {
            best_sum = stats.sum_us;
            dominant = std::string(name);
        }
        out.emplace(std::string(name), stats);
    }
    return out;
}

void append_phase_json(std::string& out, const std::map<std::string, PhaseStats>& phases) {
    out += "{";
    bool first = true;
    for (const std::string_view name : phase::kAll) {
        const auto it = phases.find(std::string(name));
        if (it == phases.end()) continue;
        const PhaseStats& s = it->second;
        if (!first) out += ',';
        first = false;
        out += "\"";
        out += name;
        out += "\":{\"count\":" + std::to_string(s.count);
        out += ",\"sum_us\":" + std::to_string(s.sum_us);
        out += ",\"p50_us\":" + std::to_string(s.p50_us);
        out += ",\"p90_us\":" + std::to_string(s.p90_us);
        out += ",\"p99_us\":" + std::to_string(s.p99_us);
        out += ",\"max_us\":" + std::to_string(s.max_us) + "}";
    }
    out += "}";
}

void append_phase_text(std::string& out, const std::map<std::string, PhaseStats>& phases,
                       const std::string& indent) {
    std::int64_t total = 0;
    for (const std::string_view name : phase::kAll) {
        const auto it = phases.find(std::string(name));
        if (it != phases.end()) total += it->second.sum_us;
    }
    for (const std::string_view name : phase::kAll) {
        const auto it = phases.find(std::string(name));
        if (it == phases.end()) continue;
        const PhaseStats& s = it->second;
        const std::int64_t pct = total == 0 ? 0 : 100 * s.sum_us / total;
        std::string line = indent + std::string(name);
        while (line.size() < indent.size() + 18) line += ' ';
        line += "sum " + std::to_string(s.sum_us) + "us (" + std::to_string(pct) + "%)";
        while (line.size() < indent.size() + 48) line += ' ';
        line += "p50 " + std::to_string(s.p50_us) + "  p90 " + std::to_string(s.p90_us) +
                "  p99 " + std::to_string(s.p99_us) + "  max " + std::to_string(s.max_us);
        out += line + "\n";
    }
}

std::string or_none(const std::string& dominant) {
    return dominant.empty() ? "none" : dominant;
}

}  // namespace

bool ProfileReport::reconciled() const {
    if (!ok) return false;
    for (const Reconciliation& r : reconciliations) {
        if (!r.ok) return false;
    }
    return true;
}

ProfileReport LatencyProfiler::analyze(const TraceDump& dump) const {
    ProfileReport report;
    if (dump.dropped != 0) {
        report.error = "trace truncated: " + std::to_string(dump.dropped) +
                       " events were evicted from a bounded sink; latency attribution "
                       "over a partial stream would be silently wrong. Re-run with a "
                       "larger trace capacity.";
        return report;
    }
    report.ok = true;

    // Group events per trace (stream order preserved) and record which kind
    // opened each span — that is what disambiguates a manager's forward
    // multicast from its aggregate multicast on the backward walk.
    std::map<std::uint64_t, std::vector<const TraceEvent*>> by_trace;
    std::map<std::uint64_t, TraceKind> opener;
    for (const TraceEvent& e : dump.events) {
        if (e.trace == 0) continue;
        by_trace[e.trace].push_back(&e);
        if (e.kind == TraceKind::kRequestSent || e.kind == TraceKind::kRequestForwarded ||
            e.kind == TraceKind::kExecutionBegun) {
            opener.emplace(e.span, e.kind);
        }
    }

    std::vector<Chain> chains;
    for (const auto& [trace, evs] : by_trace) {
        for (std::size_t i = 0; i < evs.size(); ++i) {
            if (evs[i]->kind != TraceKind::kCallCompleted) continue;
            Chain chain;
            chain.binding = evs[i]->subject;
            chain.mode = completion_detail_mode(evs[i]->detail);
            if (walk_chain(evs, i, opener, chain)) {
                chains.push_back(std::move(chain));
            } else {
                ++report.unattributed;
            }
        }
    }
    report.invocations = chains.size();

    std::vector<const Chain*> all;
    all.reserve(chains.size());
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<const Chain*>> grouped;
    for (const Chain& chain : chains) {
        all.push_back(&chain);
        grouped[{chain.binding, chain.mode}].push_back(&chain);
    }
    report.phases = aggregate_phases(all, report.dominant);
    for (const auto& [key, members] : grouped) {
        ProfileGroup group;
        group.binding = key.first;
        group.mode = key.second;
        group.chains = members.size();
        for (const Chain* chain : members) group.total_us += chain->total_us;
        group.phases = aggregate_phases(members, group.dominant);
        report.groups.push_back(std::move(group));
    }

    // Sequencer turnaround (diagnostic): first FIFO arrival of a ref at the
    // sequencer -> its ORDER broadcast.
    {
        std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>, SimTime> arrivals;
        for (const TraceEvent& e : dump.events) {
            if (e.kind == TraceKind::kDataArrived) {
                arrivals.emplace(std::tuple{e.actor, e.subject, e.detail}, e.at);
            } else if (e.kind == TraceKind::kOrderAssigned) {
                const auto it = arrivals.find(std::tuple{e.actor, e.subject, e.detail});
                if (it == arrivals.end()) continue;
                ++report.sequencer_turnaround_count;
                report.sequencer_turnaround_sum_us += e.at - it->second;
            }
        }
    }

    // -- reconciliation -------------------------------------------------------
    // Trace-derived totals, to compare against the embedded histograms.
    std::map<std::string_view, std::pair<std::uint64_t, std::int64_t>> actual;
    for (const Chain& chain : chains) {
        auto& [count, sum] = actual[reply_metric_for_mode(chain.mode)];
        ++count;
        sum += chain.total_us;
    }
    {
        // Per-member delivery latency: ship time of the carrying DATA
        // message (keyed by group + packed ref) to each kDataDelivered.
        std::map<std::pair<std::uint64_t, std::uint64_t>, SimTime> shipped;
        auto& [count, sum] = actual[metric::kGcsDeliveryLatencyUs];
        for (const TraceEvent& e : dump.events) {
            if (e.kind == TraceKind::kPayloadShipped) {
                shipped.emplace(std::pair{e.subject, e.detail}, e.at);
            } else if (e.kind == TraceKind::kDataDelivered) {
                const auto it = shipped.find(std::pair{e.subject, e.detail});
                if (it == shipped.end()) continue;
                ++count;
                sum += e.at - it->second;
            }
        }
    }
    for (const TraceExpectation& expected : dump.expectations) {
        Reconciliation r;
        r.metric = expected.metric;
        r.expected_count = expected.count;
        r.expected_sum_us = expected.sum_us;
        const auto it = actual.find(expected.metric);
        if (it != actual.end()) {
            r.actual_count = it->second.first;
            r.actual_sum_us = it->second.second;
        }
        const std::int64_t diff = r.actual_sum_us > r.expected_sum_us
                                      ? r.actual_sum_us - r.expected_sum_us
                                      : r.expected_sum_us - r.actual_sum_us;
        // >1% relative mismatch (integer arithmetic; zero expected demands
        // zero actual) or any count difference fails the cross-check.
        r.ok = r.expected_count == r.actual_count &&
               (r.expected_sum_us == 0 ? diff == 0 : 100 * diff <= r.expected_sum_us);
        report.reconciliations.push_back(std::move(r));
    }
    return report;
}

std::string ProfileReport::to_json() const {
    if (!ok) {
        std::string out = "{\"ok\":false,\"error\":\"";
        for (const char c : error) {
            if (c == '"' || c == '\\') out += '\\';
            out += c;
        }
        out += "\"}";
        return out;
    }
    std::string out = "{\"ok\":true";
    out += ",\"invocations\":" + std::to_string(invocations);
    out += ",\"unattributed\":" + std::to_string(unattributed);
    out += ",\"dominant\":\"" + dominant + "\"";
    out += ",\"phases\":";
    append_phase_json(out, phases);
    out += ",\"groups\":[";
    bool first = true;
    for (const ProfileGroup& g : groups) {
        if (!first) out += ',';
        first = false;
        out += "{\"binding\":" + std::to_string(g.binding);
        out += ",\"mode\":" + std::to_string(g.mode);
        out += ",\"chains\":" + std::to_string(g.chains);
        out += ",\"total_us\":" + std::to_string(g.total_us);
        out += ",\"dominant\":\"" + g.dominant + "\"";
        out += ",\"phases\":";
        append_phase_json(out, g.phases);
        out += "}";
    }
    out += "],\"sequencer_turnaround\":{\"count\":" +
           std::to_string(sequencer_turnaround_count) +
           ",\"sum_us\":" + std::to_string(sequencer_turnaround_sum_us) + "}";
    out += ",\"reconciliations\":[";
    first = true;
    for (const Reconciliation& r : reconciliations) {
        if (!first) out += ',';
        first = false;
        out += "{\"metric\":\"" + r.metric + "\"";
        out += ",\"expected_count\":" + std::to_string(r.expected_count);
        out += ",\"actual_count\":" + std::to_string(r.actual_count);
        out += ",\"expected_sum_us\":" + std::to_string(r.expected_sum_us);
        out += ",\"actual_sum_us\":" + std::to_string(r.actual_sum_us);
        out += std::string(",\"ok\":") + (r.ok ? "true" : "false") + "}";
    }
    out += "]}";
    return out;
}

std::string ProfileReport::to_text() const {
    if (!ok) return "error: " + error + "\n";
    std::string out = "latency attribution: " + std::to_string(invocations) +
                      " invocations attributed";
    if (unattributed != 0) {
        out += " (" + std::to_string(unattributed) + " unattributed)";
    }
    out += "\ndominant phase: " + or_none(dominant) + "\n";
    append_phase_text(out, phases, "  ");
    for (const ProfileGroup& g : groups) {
        out += "binding " + std::to_string(g.binding) + " mode " + std::to_string(g.mode) +
               ": " + std::to_string(g.chains) + " chains, total " +
               std::to_string(g.total_us) + "us, dominant " + or_none(g.dominant) + "\n";
        append_phase_text(out, g.phases, "  ");
    }
    out += "sequencer turnaround: " + std::to_string(sequencer_turnaround_count) +
           " assignments, sum " + std::to_string(sequencer_turnaround_sum_us) + "us\n";
    for (const Reconciliation& r : reconciliations) {
        out += std::string("reconcile ") + r.metric + ": count " +
               std::to_string(r.actual_count) + "/" + std::to_string(r.expected_count) +
               ", sum " + std::to_string(r.actual_sum_us) + "/" +
               std::to_string(r.expected_sum_us) + "us " + (r.ok ? "OK" : "MISMATCH") + "\n";
    }
    return out;
}

}  // namespace newtop::obs
