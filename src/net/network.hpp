// The simulated network: creates nodes, moves bytes between them, and
// injects faults (message loss, crashes, partitions).
//
// Delivery of a message takes
//     latency + U(0, jitter) + size / bandwidth
// on the link between the two nodes' sites.  Per-(sender, receiver) FIFO
// order is preserved (like a TCP connection): a message never overtakes an
// earlier message between the same pair.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/node.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace newtop {

/// Degraded-mode overlay for one link (gray-failure injection): added
/// latency and jitter, an extra drop probability and a bandwidth throttle
/// stacked on top of the topology's configured LinkParams while installed.
/// A default-constructed overlay is a no-op and is never stored.
struct LinkDegrade {
    SimDuration extra_latency{0};
    SimDuration extra_jitter{0};
    double extra_loss{0.0};
    /// Fraction of the nominal bandwidth still usable, in (0, 1].
    double bandwidth_factor{1.0};

    friend bool operator==(const LinkDegrade&, const LinkDegrade&) = default;
};

class Network {
public:
    Network(Scheduler& scheduler, Topology topology, std::uint64_t seed);

    // Nodes, gauges, timers and metric handles all point back into the
    // network, so it stays where it was built.
    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /// Create a node at `site`.
    NodeId add_node(SiteId site);

    Node& node(NodeId id);
    [[nodiscard]] const Node& node(NodeId id) const;
    [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

    /// Send bytes from one node to another.  The payload is copied; loss,
    /// partition and crash checks apply.  Sending from a crashed node is a
    /// silent no-op (the process no longer exists).
    void send(NodeId from, NodeId to, Bytes payload);

    /// Crash-stop a node.  Crashing an already-crashed node is a
    /// deterministic no-op, counted as net.crash_ignored (fault plans may
    /// legitimately hit the same node twice).
    void crash(NodeId id);

    /// Schedule a crashed node to restart after `delay`.  When the timer
    /// fires the node comes back with a bumped incarnation (see
    /// Node::restart()); restarting a node that is alive at that point is a
    /// deterministic no-op, counted as net.restart_ignored.
    void restart(NodeId id, SimDuration delay);

    // -- Partitions --------------------------------------------------------
    // Each node lives in a partition cell (default 0).  Messages are only
    // delivered between nodes that share a cell *at delivery time*.

    /// Move a single node to a partition cell.
    void set_partition(NodeId id, int cell);

    /// Move every node of a site to a partition cell.
    void partition_site(SiteId site, int cell);

    /// Merge all cells back into one connected network.
    void heal();

    // -- Loss bursts -------------------------------------------------------
    // Chaos-style fault injection: an extra drop probability applied on top
    // of every link's configured loss while non-zero.  Clamped to [0, 1].

    void set_extra_loss(double p);
    [[nodiscard]] double extra_loss() const { return extra_loss_; }

    // -- Gray-failure injection --------------------------------------------
    // Degraded-but-alive faults: slow hosts, sick links and flapping
    // connectivity.  All deterministic — the only randomness is the world
    // Rng, and every degrade draw is gated on the fault being installed, so
    // runs without gray faults consume an unchanged random stream.

    /// Install (or replace) a degradation overlay on the (a, b) link; links
    /// are directionless, and a == b degrades the site's intra-site LAN.  A
    /// default-constructed (all no-op) overlay clears the entry.
    void set_link_degrade(SiteId a, SiteId b, const LinkDegrade& degrade);
    void clear_link_degrade(SiteId a, SiteId b);
    [[nodiscard]] const LinkDegrade* link_degrade(SiteId a, SiteId b) const;

    /// Scale the CPU cost of all work subsequently submitted on `id`'s host
    /// (1.0 = nominal).  The factor survives crash/restart: slowness is a
    /// property of the host, not the process.
    void set_cpu_slowdown(NodeId id, double factor);

    /// Deterministic flapping schedule: starting at `start`, move every
    /// node of `site` into partition cell `cell` for `isolated_for`, back
    /// into cell 0 for `joined_for`, repeated `cycles` times.  All
    /// transitions are scheduled up front from the arguments alone.
    void schedule_flap(SiteId site, SimTime start, int cycles, SimDuration isolated_for,
                       SimDuration joined_for, int cell);

    [[nodiscard]] const Topology& topology() const { return topology_; }
    [[nodiscard]] Scheduler& scheduler() { return *scheduler_; }

    /// The world's metrics registry.  The network owns it because every
    /// other layer (CPU queues, ORBs, endpoints, invocation services)
    /// already reaches the network; one registry per simulated world keeps
    /// concurrent worlds in one process isolated and runs reproducible.
    [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
    [[nodiscard]] const obs::MetricsRegistry& metrics() const { return metrics_; }

    /// Sample every registered gauge (holdback depth, send credits, CPU
    /// backlog, directory size, ...) every `interval`, for `horizon` of sim
    /// time starting now.  All ticks are scheduled up front so the event
    /// queue still drains — a self-rescheduling tick would keep an
    /// otherwise-finished simulation alive forever.
    void enable_gauge_sampling(SimDuration interval, SimDuration horizon);

private:
    /// Per-(sender site, receiver site) traffic counters,
    /// "net.link.A->B.{messages,bytes,drops}".
    struct LinkCounters {
        obs::Counter messages;
        obs::Counter bytes;
        obs::Counter drops;
    };
    LinkCounters& link_counters(SiteId from, SiteId to) {
        return link_counters_[from.value() * topology_.site_count() + to.value()];
    }

    static std::pair<SiteId, SiteId> ordered_sites(SiteId a, SiteId b) {
        return a < b ? std::pair{a, b} : std::pair{b, a};
    }

    Scheduler* scheduler_;
    Topology topology_;
    Rng rng_;
    double extra_loss_{0.0};
    // Installed degradation overlays, keyed by ordered site pair.  Empty in
    // a healthy world, so the hot send path pays one branch.
    std::map<std::pair<SiteId, SiteId>, LinkDegrade> degraded_links_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<int> partition_cell_;
    // Scheduler lane of the arrivals per (from, to), opened by the first
    // send: link_lanes_[from][to], node_count() square, grown by add_node.
    // Arrivals on a link never reorder, so they queue FIFO on its lane and
    // the lane's back is the earliest time the next arrival may take.
    static constexpr LaneId kNoLane = ~LaneId{0};
    std::vector<std::vector<LaneId>> link_lanes_;
    obs::MetricsRegistry metrics_;
    // Handles into metrics_ for the per-message path (declared after it).
    obs::Counter messages_sent_;
    obs::Counter bytes_sent_;
    obs::Counter wan_messages_;
    obs::Counter messages_lost_;
    obs::Counter stale_incarnation_drops_;
    obs::Counter messages_delivered_;
    obs::Histogram delivery_latency_;
    // site_count()^2 entries, row-major by sender site; never resized, so
    // in-flight deliveries may hold pointers into it.
    std::vector<LinkCounters> link_counters_;
};

}  // namespace newtop
