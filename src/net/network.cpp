#include "net/network.hpp"

#include <algorithm>

#include "obs/names.hpp"
#include "util/check.hpp"

namespace newtop {

Network::Network(Scheduler& scheduler, Topology topology, std::uint64_t seed)
    : scheduler_(&scheduler),
      topology_(std::move(topology)),
      rng_(seed),
      messages_sent_(metrics_, obs::metric::kNetMessagesSent),
      bytes_sent_(metrics_, obs::metric::kNetBytesSent),
      wan_messages_(metrics_, obs::metric::kNetWanMessages),
      messages_lost_(metrics_, obs::metric::kNetMessagesLost),
      stale_incarnation_drops_(metrics_, obs::metric::kNetStaleIncarnationDrops),
      messages_delivered_(metrics_, obs::metric::kNetMessagesDelivered),
      delivery_latency_(metrics_, obs::metric::kNetDeliveryLatencyUs) {
    const std::size_t sites = topology_.site_count();
    link_counters_.reserve(sites * sites);
    for (std::size_t from = 0; from < sites; ++from) {
        for (std::size_t to = 0; to < sites; ++to) {
            const std::string prefix = std::string(obs::metric::kNetLinkPrefix) +
                                       std::to_string(from) + "->" + std::to_string(to);
            link_counters_.push_back(LinkCounters{
                obs::Counter(metrics_, prefix + ".messages"),
                obs::Counter(metrics_, prefix + ".bytes"),
                obs::Counter(metrics_, prefix + ".drops"),
            });
        }
    }
}

NodeId Network::add_node(SiteId site) {
    NEWTOP_EXPECTS(site.value() < topology_.site_count(), "unknown site");
    const NodeId id(static_cast<NodeId::rep_type>(nodes_.size()));
    nodes_.push_back(std::make_unique<Node>(id, site, *scheduler_));
    nodes_.back()->cpu().attach_metrics(metrics_);
    // Nodes live as long as the network, so the gauge never dangles.
    Node* raw = nodes_.back().get();
    metrics_.register_gauge(obs::metric::kCpuBacklogUs, [raw](SimTime at) {
        return static_cast<std::uint64_t>(raw->cpu().backlog(at));
    });
    partition_cell_.push_back(0);
    for (auto& row : link_lanes_) row.push_back(kNoLane);
    link_lanes_.emplace_back(nodes_.size(), kNoLane);
    return id;
}

void Network::enable_gauge_sampling(SimDuration interval, SimDuration horizon) {
    NEWTOP_EXPECTS(interval > 0, "sampling interval must be positive");
    NEWTOP_EXPECTS(horizon >= 0, "sampling horizon must be non-negative");
    for (SimDuration offset = interval; offset <= horizon; offset += interval) {
        scheduler_->schedule_after(offset,
                                   [this] { metrics_.sample_gauges(scheduler_->now()); });
    }
}

Node& Network::node(NodeId id) {
    NEWTOP_EXPECTS(id.value() < nodes_.size(), "unknown node");
    return *nodes_[id.value()];
}

const Node& Network::node(NodeId id) const {
    NEWTOP_EXPECTS(id.value() < nodes_.size(), "unknown node");
    return *nodes_[id.value()];
}

void Network::send(NodeId from, NodeId to, Bytes payload) {
    Node& src = node(from);
    Node& dst = node(to);
    if (src.crashed()) return;

    messages_sent_.add();
    bytes_sent_.add(payload.size());
    LinkCounters& counters = link_counters(src.site(), dst.site());
    counters.messages.add();
    counters.bytes.add(payload.size());

    const LinkParams& link = topology_.link(src.site(), dst.site());
    if (src.site() != dst.site()) wan_messages_.add();

    const LinkDegrade* degrade = nullptr;
    if (!degraded_links_.empty()) {
        const auto it = degraded_links_.find(ordered_sites(src.site(), dst.site()));
        if (it != degraded_links_.end()) degrade = &it->second;
    }

    // The extra-loss and degrade draws only happen while a burst/overlay is
    // active, so runs without them consume an unchanged random stream.
    if (rng_.next_bool(link.loss) || (extra_loss_ > 0.0 && rng_.next_bool(extra_loss_)) ||
        (degrade != nullptr && degrade->extra_loss > 0.0 &&
         rng_.next_bool(degrade->extra_loss))) {
        messages_lost_.add();
        counters.drops.add();
        return;
    }

    SimDuration delay = link.latency;
    if (degrade != nullptr) delay += degrade->extra_latency;
    if (link.jitter > 0) delay += rng_.next_in_signed(0, link.jitter);
    if (degrade != nullptr && degrade->extra_jitter > 0) {
        delay += rng_.next_in_signed(0, degrade->extra_jitter);
    }
    double bandwidth = link.bytes_per_us;
    if (degrade != nullptr) bandwidth *= degrade->bandwidth_factor;
    if (bandwidth > 0.0) {
        delay += static_cast<SimDuration>(static_cast<double>(payload.size()) / bandwidth);
    }

    // FIFO per (from, to): arrival may not precede the previous arrival.
    LaneId& lane = link_lanes_[from.value()][to.value()];
    if (lane == kNoLane) lane = scheduler_->open_lane();
    const SimTime arrival = std::max(scheduler_->now() + delay, scheduler_->lane_back(lane));

    // Stamp the message with the destination's current life.  If the
    // destination crashes and restarts while the message is in flight, the
    // delivery is addressed to a process that no longer exists and must be
    // dropped — the reborn process is a fresh group member that never saw
    // the old connection.
    const std::uint32_t dst_incarnation = dst.incarnation();
    const SimTime sent_at = scheduler_->now();
    scheduler_->schedule_in(lane, arrival, [this, from, to, sent_at, dst_incarnation,
                                            counters = &counters,
                                            payload = std::move(payload)]() mutable {
        if (partition_cell_[from.value()] != partition_cell_[to.value()]) {
            messages_lost_.add();
            counters->drops.add();
            return;
        }
        Node& receiver = node(to);
        if (receiver.crashed()) {
            messages_lost_.add();
            counters->drops.add();
            return;
        }
        if (receiver.incarnation() != dst_incarnation) {
            messages_lost_.add();
            stale_incarnation_drops_.add();
            counters->drops.add();
            return;
        }
        messages_delivered_.add();
        delivery_latency_.observe(scheduler_->now() - sent_at);
        receiver.deliver(from, std::move(payload));
    });
}

void Network::crash(NodeId id) {
    Node& n = node(id);
    if (n.crashed()) {
        metrics_.add(obs::metric::kNetCrashIgnored);
        return;
    }
    n.crash();
    metrics_.add(obs::metric::kNetCrashes);
}

void Network::restart(NodeId id, SimDuration delay) {
    NEWTOP_EXPECTS(delay >= 0, "restart delay must be non-negative");
    NEWTOP_EXPECTS(id.value() < nodes_.size(), "unknown node");
    scheduler_->schedule_after(delay, [this, id] {
        if (node(id).restart()) {
            metrics_.add(obs::metric::kNetRestarts);
        } else {
            metrics_.add(obs::metric::kNetRestartIgnored);
        }
    });
}

void Network::set_partition(NodeId id, int cell) {
    NEWTOP_EXPECTS(id.value() < nodes_.size(), "unknown node");
    partition_cell_[id.value()] = cell;
}

void Network::partition_site(SiteId site, int cell) {
    for (const auto& n : nodes_) {
        if (n->site() == site) partition_cell_[n->id().value()] = cell;
    }
}

void Network::heal() { std::fill(partition_cell_.begin(), partition_cell_.end(), 0); }

void Network::set_extra_loss(double p) { extra_loss_ = std::clamp(p, 0.0, 1.0); }

void Network::set_link_degrade(SiteId a, SiteId b, const LinkDegrade& degrade) {
    NEWTOP_EXPECTS(a.value() < topology_.site_count() && b.value() < topology_.site_count(),
                   "unknown site");
    NEWTOP_EXPECTS(degrade.extra_latency >= 0 && degrade.extra_jitter >= 0,
                   "degrade latency/jitter must be non-negative");
    NEWTOP_EXPECTS(degrade.bandwidth_factor > 0.0 && degrade.bandwidth_factor <= 1.0,
                   "bandwidth factor must be in (0, 1]");
    NEWTOP_EXPECTS(degrade.extra_loss >= 0.0 && degrade.extra_loss <= 1.0,
                   "extra loss must be a probability");
    const auto key = ordered_sites(a, b);
    if (degrade == LinkDegrade{}) {
        degraded_links_.erase(key);
    } else {
        degraded_links_[key] = degrade;
    }
}

void Network::clear_link_degrade(SiteId a, SiteId b) {
    degraded_links_.erase(ordered_sites(a, b));
}

const LinkDegrade* Network::link_degrade(SiteId a, SiteId b) const {
    const auto it = degraded_links_.find(ordered_sites(a, b));
    return it == degraded_links_.end() ? nullptr : &it->second;
}

void Network::set_cpu_slowdown(NodeId id, double factor) {
    node(id).cpu().set_slowdown(factor);
}

void Network::schedule_flap(SiteId site, SimTime start, int cycles, SimDuration isolated_for,
                            SimDuration joined_for, int cell) {
    NEWTOP_EXPECTS(site.value() < topology_.site_count(), "unknown site");
    NEWTOP_EXPECTS(cycles >= 1, "flap schedule needs at least one cycle");
    NEWTOP_EXPECTS(isolated_for > 0 && joined_for > 0, "degenerate flap periods");
    NEWTOP_EXPECTS(cell != 0, "flap cell must differ from the connected cell");
    SimTime at = start;
    for (int c = 0; c < cycles; ++c) {
        scheduler_->schedule_at(at, [this, site, cell] { partition_site(site, cell); });
        scheduler_->schedule_at(at + isolated_for, [this, site] { partition_site(site, 0); });
        at += isolated_for + joined_for;
    }
}

}  // namespace newtop
