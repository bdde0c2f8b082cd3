// Time-silence, failure suspicion and stability tracking (§3 of the paper).
//
// A group's "mechanisms" (null heartbeats + suspicion) are always on for
// lively groups and on only while messages are outstanding for event-driven
// groups.  Nulls serve three purposes at once: they advance the symmetric
// total order, they carry stability vectors (pruning retransmission
// buffers), and they are the "I am alive" signal the suspector watches.
#include "gcs/endpoint.hpp"

#include <algorithm>
#include <cmath>

#include "obs/names.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace newtop {

bool GroupCommEndpoint::mechanisms_active(const Group& g) const {
    if (!g.installed) return false;
    if (g.config.liveness == LivenessMode::kLively) return true;
    if (g.state == Group::State::kViewChange) return true;
    // A pending membership trigger must be able to make progress even in an
    // otherwise quiet group: if the lowest-ranked member is dead but was
    // never suspected (no traffic since the crash), the failure detector
    // has to run to unseat it — otherwise a joiner waits forever for a
    // coordinator that no longer exists.
    if (!g.suspects.empty() || !g.pending_joiners.empty() || !g.pending_leavers.empty()) {
        return true;
    }
    if (!g.unstable.empty() || !g.release_queue.empty() || g.engine.has_pending()) return true;
    for (const auto& [member, stream] : g.inbound) {
        if (!stream.out_of_order.empty()) return true;
    }
    return false;
}

void GroupCommEndpoint::stop_liveness(Group& g) {
    g.silence_timer.cancel();
    g.progress_timer.cancel();
    g.suspicion_timer.cancel();
    g.stability_timer.cancel();
}

void GroupCommEndpoint::kick_liveness(Group& g) {
    if (!mechanisms_active(g)) {
        stop_liveness(g);
        if (g.liveness_active) {
            g.liveness_active = false;
            // Parting report: we just learned everything is stable, but the
            // other members may still be waiting on *our* received counts to
            // prune their stores (and would otherwise suspect us once we go
            // quiet).  One last null carries them over the line.
            if (g.installed && g.state == Group::State::kNormal &&
                g.view.members.size() > 1) {
                send_null(g);
            }
        }
        return;
    }
    if (!g.liveness_active) {
        g.liveness_active = true;
        g.active_since = orb_->scheduler().now();
    }
    // Heartbeats are pointless when alone in the group.
    if (g.view.members.size() < 2) return;

    const SimTime base = g.ever_sent ? g.last_send_time : g.view_installed_at;

    if (!g.silence_timer.armed()) {
        g.silence_timer.arm_at(*orb_, base + kTimeSilence,
                               [this, &g] { on_silence_timer(g); });
    }
    // Progress nulls are armed only when they can actually unblock the
    // order: something arrived since our last send AND our own timestamp
    // still lags the held-back head (once we have spoken past the head,
    // everyone already has what they need from us).  This caps protocol
    // chatter at roughly one null per member per ordering round.
    const auto head = g.engine.symmetric_head();
    if (!g.progress_timer.armed() && head.has_value() && g.received_since_send &&
        g.last_sent_ts < *head) {
        g.progress_timer.arm_at(*orb_, base + kAckDelay,
                                [this, &g] { on_progress_timer(g); });
    }
    if (!g.suspicion_timer.armed()) {
        g.suspicion_timer.arm(*orb_, kSuspicionTimeout / 2,
                              [this, &g] { on_suspicion_scan(g); });
    }
    if (!g.stability_timer.armed()) {
        g.stability_timer.arm(*orb_, kStabilityPeriod,
                              [this, &g] { on_stability_tick(g); });
    }
}

void GroupCommEndpoint::send_null(Group& g) {
    NEWTOP_TRACE("ep " << id_ << " null in group " << g.id << " at " << orb_->scheduler().now()
                       << " unstable=" << g.unstable.size());
    send_data(g, DataKind::kNull, {});
}

void GroupCommEndpoint::on_silence_timer(Group& g) {
    if (!mechanisms_active(g)) return;
    if (orb_->scheduler().now() >= g.last_send_time + kTimeSilence || !g.ever_sent) {
        send_null(g);
    }
    kick_liveness(g);
}

void GroupCommEndpoint::on_progress_timer(Group& g) {
    const auto head = g.engine.symmetric_head();
    if (!mechanisms_active(g) || !head.has_value()) return;
    // Our timestamp is what other members' held-back messages wait for; a
    // null advances it without application traffic.  Self-clocking: only
    // null when something arrived since our last send and our timestamp
    // still lags the ordering head — otherwise a repeat null could not
    // unblock anyone.  (The time-silence heartbeat remains the fallback.)
    if (g.received_since_send && g.last_sent_ts < *head &&
        orb_->scheduler().now() >= g.last_send_time + kAckDelay) {
        send_null(g);
    }
    kick_liveness(g);
}

// -- φ-accrual failure detection (Hayashibara et al., SRDS 2004) ----------------
//
// Instead of one fixed silence deadline for every peer, the detector models
// each peer's inter-arrival history and asks how improbable the current
// silence is under it.  The suspicion level φ = -log10 P(silence this long
// | history); crossing the configured threshold raises the suspicion.  Two
// bounds keep it sane: the fixed kSuspicionTimeout stays the *floor* (tight
// histories detect a crash exactly as fast as the paper's fixed detector),
// and kPhiCeiling caps how long a chaotic history can defer detection.

double GroupCommEndpoint::phi_of(const InboundStream& stream, SimDuration silence) {
    if (stream.intervals.size() < kPhiMinSamples) return 0.0;
    double sum = 0.0;
    for (const SimDuration gap : stream.intervals) sum += static_cast<double>(gap);
    const double mean = sum / static_cast<double>(stream.intervals.size());
    double var = 0.0;
    for (const SimDuration gap : stream.intervals) {
        const double d = static_cast<double>(gap) - mean;
        var += d * d;
    }
    var /= static_cast<double>(stream.intervals.size());
    // Keep the deviation from collapsing on metronomic histories: a floor
    // of mean/8 (and 1 ms absolute) keeps φ finite and sensibly sharp.
    const double sigma = std::max({std::sqrt(var), mean / 8.0, 1000.0});
    const double y = (static_cast<double>(silence) - mean) / sigma;
    if (y <= 0.0) return 0.0;
    // Logistic approximation of the normal tail (the one Akka's accrual
    // detector uses): monotone in y and accurate to the precision φ needs.
    const double e = std::exp(-y * (1.5976 + 0.070566 * y * y));
    return -std::log10(e / (1.0 + e));
}

bool GroupCommEndpoint::suspicion_due(const GroupConfig& config, const InboundStream* stream,
                                      SimDuration silence) {
    if (silence <= kSuspicionTimeout) return false;
    // Accrual disabled, or not enough history to model the peer: the floor
    // is the whole deadline — the paper's fixed-timeout detector.
    if (config.phi_threshold_milli == 0 || stream == nullptr ||
        stream->intervals.size() < kPhiMinSamples) {
        return true;
    }
    if (silence > kPhiCeiling) return true;
    return phi_of(*stream, silence) * 1000.0 >=
           static_cast<double>(config.phi_threshold_milli);
}

void GroupCommEndpoint::on_suspicion_scan(Group& g) {
    if (!mechanisms_active(g)) return;
    const GroupId id = g.id;
    const SimTime now = orb_->scheduler().now();
    if (g.state == Group::State::kNormal) {
        for (const EndpointId member : g.view.members) {
            if (member == id_ || g.suspects.contains(member)) continue;
            const auto it = g.inbound.find(member);
            const InboundStream* stream = it == g.inbound.end() ? nullptr : &it->second;
            const SimTime last =
                std::max({stream == nullptr ? 0 : stream->last_heard,
                          g.view_installed_at, g.active_since});
            if (suspicion_due(g.config, stream, now - last)) {
                NEWTOP_DEBUG("suspicion scan: ep " << id_ << " group " << g.id << " member "
                                                   << member << " now=" << now << " last=" << last
                                                   << " active_since=" << g.active_since
                                                   << " unstable=" << g.unstable.size()
                                                   << " holdback=" << g.release_queue.size());
                metrics().observe(obs::metric::kGcsDetectionLatencyUs, now - last);
                note_suspect(g, member, /*broadcast=*/true);
            }
        }
        maybe_start_view_change(g);
    }
    // The round may have completed synchronously and removed us from the
    // group (erasing it); re-resolve before touching it again.
    if (Group* still = find_group(id)) kick_liveness(*still);
}

void GroupCommEndpoint::on_stability_tick(Group& g) {
    if (!mechanisms_active(g)) return;
    // Gossip our received counts even while application traffic keeps the
    // silence timer from ever firing.
    send_null(g);
    kick_liveness(g);
}

std::vector<std::pair<EndpointId, Seqno>> GroupCommEndpoint::received_counts(
    const Group& g) const {
    std::vector<std::pair<EndpointId, Seqno>> out;
    out.reserve(g.view.members.size());
    for (const EndpointId member : g.view.members) {
        if (member == id_) {
            out.emplace_back(member, g.next_send_seq);
        } else {
            const auto it = g.inbound.find(member);
            out.emplace_back(member, it == g.inbound.end() ? 0 : it->second.next_expected);
        }
    }
    return out;
}

void GroupCommEndpoint::apply_stability_report(
    Group& g, EndpointId reporter, const std::vector<std::pair<EndpointId, Seqno>>& counts) {
    auto& slot = g.stability_reports[reporter];
    for (const auto& [member, count] : counts) {
        auto& entry = slot[member];
        entry = std::max(entry, count);
    }
    recompute_stability(g);
}

void GroupCommEndpoint::recompute_stability(Group& g) {
    const std::vector<EndpointId>& members = g.view.members;
    if (members.size() < 2) return;
    // A message (sender m, seq s) is stable once every member has received
    // m's stream contiguously past s; then nobody can ever NACK it and it
    // need not appear in a view-change flush.  floors[i] is the least count
    // any member reports for members[i], starting from our own.
    auto floors = received_counts(g);
    for (const EndpointId member : members) {
        if (member == id_) continue;
        const auto rit = g.stability_reports.find(member);
        // A member that never reported holds every floor at 0.
        if (rit == g.stability_reports.end()) return;
        // Both sides ascend by member id: one merge walk per report.
        auto cit = rit->second.begin();
        for (auto& [sender, floor] : floors) {
            while (cit != rit->second.end() && cit->first < sender) ++cit;
            const bool reported = cit != rit->second.end() && cit->first == sender;
            floor = std::min(floor, reported ? cit->second : Seqno{0});
        }
    }
    for (const auto& [sender, floor] : floors) g.unstable.erase_below(sender, floor);
}

}  // namespace newtop
