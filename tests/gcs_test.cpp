#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "gcs/endpoint.hpp"
#include "net/calibration.hpp"
#include "obs/names.hpp"
#include "trace_oracle.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

Bytes payload_of(const std::string& s) { return Bytes(s.begin(), s.end()); }
std::string to_string(const Bytes& b) { return std::string(b.begin(), b.end()); }

/// `prefix` followed by `n` in decimal.  Appends rather than writing
/// `"m" + std::to_string(n)`, which trips a GCC 12 -Wrestrict false positive
/// in optimized builds.
std::string numbered(std::string prefix, std::uint64_t n) {
    prefix += std::to_string(n);
    return prefix;
}

/// A small simulated world of endpoints for GCS integration tests.
struct GcsWorld {
    struct Logged {
        GroupId group;
        EndpointId sender;
        std::string payload;
    };

    explicit GcsWorld(Topology topology, std::uint64_t seed = 7)
        : net(scheduler, std::move(topology), seed) {}

    std::size_t add_endpoint(SiteId site) {
        const NodeId node = net.add_node(site);
        orbs.push_back(std::make_unique<Orb>(net, node));
        auto ep = std::make_unique<GroupCommEndpoint>(*orbs.back(), directory);
        const std::size_t index = endpoints.size();
        delivered.emplace_back();
        views.emplace_back();
        removed.emplace_back();
        ep->set_deliver_handler([this, index](const GroupCommEndpoint::Delivery& d) {
            delivered[index].push_back(Logged{d.group, d.sender, to_string(d.payload)});
        });
        ep->set_view_handler([this, index](const GroupCommEndpoint::ViewChangeEvent& event) {
            views[index].push_back(event.view);
        });
        ep->set_removed_handler([this, index](GroupId g) { removed[index].push_back(g); });
        endpoints.push_back(std::move(ep));
        return index;
    }

    GroupCommEndpoint& ep(std::size_t i) { return *endpoints[i]; }

    void run_for(SimDuration d) { scheduler.run_until(scheduler.now() + d); }

    /// Payload strings delivered at endpoint i for a group, in order.
    std::vector<std::string> log_of(std::size_t i, GroupId g) const {
        std::vector<std::string> out;
        for (const auto& entry : delivered[i]) {
            if (entry.group == g) out.push_back(entry.payload);
        }
        return out;
    }

    Scheduler scheduler;
    Network net;
    test::OracleScope oracle{net.metrics()};
    Directory directory;
    std::vector<std::unique_ptr<Orb>> orbs;
    std::vector<std::unique_ptr<GroupCommEndpoint>> endpoints;
    std::vector<std::vector<Logged>> delivered;
    std::vector<std::vector<View>> views;
    std::vector<std::vector<GroupId>> removed;
};

GroupConfig config_for(OrderMode order, LivenessMode liveness = LivenessMode::kEventDriven) {
    GroupConfig cfg;
    cfg.order = order;
    cfg.liveness = liveness;
    return cfg;
}

struct LanGcs : ::testing::Test {
    LanGcs() : world(calibration::make_lan_topology()) {}
    GcsWorld world;
};

// -- group lifecycle -----------------------------------------------------------

TEST_F(LanGcs, CreateInstallsSingletonView) {
    const auto a = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    ASSERT_TRUE(world.ep(a).is_member(g));
    const View* view = world.ep(a).current_view(g);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->epoch, 1u);
    EXPECT_EQ(view->members, std::vector<EndpointId>{world.ep(a).id()});
    ASSERT_EQ(world.views[a].size(), 1u);
}

TEST_F(LanGcs, DuplicateGroupNameRejected) {
    const auto a = world.add_endpoint(SiteId(0));
    world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    EXPECT_THROW(world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric)),
                 PreconditionError);
}

TEST_F(LanGcs, JoinYieldsCommonView) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    world.ep(b).join_group("g");
    world.run_for(100_ms);
    ASSERT_TRUE(world.ep(b).is_member(g));
    const View* va = world.ep(a).current_view(g);
    const View* vb = world.ep(b).current_view(g);
    ASSERT_NE(va, nullptr);
    ASSERT_NE(vb, nullptr);
    EXPECT_EQ(*va, *vb);
    EXPECT_EQ(va->members.size(), 2u);
}

TEST_F(LanGcs, ThreeMembersJoinSequentially) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    const auto c = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    world.ep(b).join_group("g");
    world.run_for(100_ms);
    world.ep(c).join_group("g");
    world.run_for(100_ms);
    for (auto i : {a, b, c}) {
        ASSERT_TRUE(world.ep(i).is_member(g)) << "endpoint " << i;
        EXPECT_EQ(world.ep(i).current_view(g)->members.size(), 3u);
    }
}

TEST_F(LanGcs, ConcurrentJoinsConverge) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    const auto c = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    world.ep(b).join_group("g");
    world.ep(c).join_group("g");
    world.run_for(2_s);
    for (auto i : {a, b, c}) {
        ASSERT_TRUE(world.ep(i).is_member(g));
        EXPECT_EQ(world.ep(i).current_view(g)->members.size(), 3u);
    }
}

TEST_F(LanGcs, LeaveRemovesMemberAndNotifies) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    world.ep(b).join_group("g");
    world.run_for(100_ms);
    world.ep(b).leave_group(g);
    world.run_for(500_ms);
    EXPECT_FALSE(world.ep(b).knows_group(g));
    EXPECT_EQ(world.removed[b], std::vector<GroupId>{g});
    ASSERT_TRUE(world.ep(a).is_member(g));
    EXPECT_EQ(world.ep(a).current_view(g)->members.size(), 1u);
}

TEST_F(LanGcs, LastMemberLeavingDisbands) {
    const auto a = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    world.ep(a).leave_group(g);
    EXPECT_FALSE(world.ep(a).knows_group(g));
    EXPECT_EQ(world.removed[a], std::vector<GroupId>{g});
}

// A Group owns its timers, so leaving a group as its last member cancels
// them, and a Group re-created under the same id never runs a timer armed
// for the old one.  Here the old Group's pending end-of-step ORDER flush is
// the timer at stake: a sole sequencer delivers only once it has flushed.
TEST_F(LanGcs, RecreatedGroupRunsNoTimerOfTheGroupItReplaces) {
    const auto a = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kTotalAsymmetric));
    world.run_for(10_ms);
    ASSERT_EQ(world.scheduler.pending(), 0u);
    world.ep(a).multicast(g, payload_of("old"));
    ASSERT_EQ(world.scheduler.pending(), 1u);  // the sequencer's ORDER flush
    world.ep(a).leave_group(g);
    EXPECT_FALSE(world.ep(a).knows_group(g));
    EXPECT_EQ(world.scheduler.pending(), 0u);

    // Joining a group nobody else holds re-founds it: a new Group, same id.
    EXPECT_EQ(world.ep(a).join_group("g"), g);
    ASSERT_TRUE(world.ep(a).is_member(g));
    world.ep(a).multicast(g, payload_of("new"));
    EXPECT_EQ(world.scheduler.pending(), 1u);  // the new Group's own flush
    world.run_for(100_ms);
    EXPECT_EQ(world.log_of(a, g), std::vector<std::string>{"new"});
}

TEST_F(LanGcs, JoinUnknownGroupThrows) {
    const auto a = world.add_endpoint(SiteId(0));
    EXPECT_THROW(world.ep(a).join_group("nope"), PreconditionError);
}

// -- ordered multicast ----------------------------------------------------------

struct OrderedGroup : LanGcs, ::testing::WithParamInterface<OrderMode> {
    GroupId make_group(std::size_t n_members) {
        indices.clear();
        for (std::size_t i = 0; i < n_members; ++i) indices.push_back(world.add_endpoint(SiteId(0)));
        group = world.ep(indices[0]).create_group("g", config_for(GetParam()));
        for (std::size_t i = 1; i < n_members; ++i) {
            world.ep(indices[i]).join_group("g");
            world.run_for(100_ms);
        }
        return group;
    }

    std::vector<std::size_t> indices;
    GroupId group;
};

TEST_P(OrderedGroup, SingleMulticastReachesAll) {
    make_group(3);
    world.ep(indices[0]).multicast(group, payload_of("hello"));
    world.run_for(200_ms);
    for (auto i : indices) {
        EXPECT_EQ(world.log_of(i, group), std::vector<std::string>{"hello"})
            << "at endpoint " << i;
    }
}

TEST_P(OrderedGroup, ConcurrentMulticastsDeliverInIdenticalOrder) {
    make_group(4);
    for (std::size_t round = 0; round < 5; ++round) {
        for (auto i : indices) {
            world.ep(i).multicast(group,
                                  payload_of(numbered(numbered("m", i) + ".", round)));
        }
    }
    world.run_for(2_s);
    const auto reference = world.log_of(indices[0], group);
    EXPECT_EQ(reference.size(), 20u);
    for (auto i : indices) {
        EXPECT_EQ(world.log_of(i, group), reference) << "at endpoint " << i;
    }
}

TEST_P(OrderedGroup, SenderFifoPreserved) {
    make_group(3);
    for (int k = 0; k < 10; ++k) {
        world.ep(indices[1]).multicast(group, payload_of(numbered("s", k)));
    }
    world.run_for(1_s);
    const auto log = world.log_of(indices[2], group);
    ASSERT_EQ(log.size(), 10u);
    for (int k = 0; k < 10; ++k) EXPECT_EQ(log[static_cast<std::size_t>(k)], numbered("s", k));
}

TEST_P(OrderedGroup, SurvivesMessageLoss) {
    // 10% loss: NACK-based retransmission must still deliver everything,
    // in the same order everywhere.
    Topology lossy;
    lossy.add_site("LAN", LinkParams{.latency = 250, .jitter = 30, .loss = 0.10,
                                     .bytes_per_us = 12.5});
    GcsWorld w(std::move(lossy), 21);
    std::vector<std::size_t> members;
    for (int i = 0; i < 3; ++i) members.push_back(w.add_endpoint(SiteId(0)));
    const GroupId g = w.ep(members[0]).create_group("g", config_for(GetParam()));
    for (std::size_t i = 1; i < members.size(); ++i) {
        w.ep(members[i]).join_group("g");
        // Lost join/propose/install messages are healed by retries and
        // view-change timeouts; give them room.
        w.run_for(3_s);
    }
    for (auto i : members) ASSERT_TRUE(w.ep(i).is_member(g));
    for (int k = 0; k < 10; ++k) {
        for (auto i : members) w.ep(i).multicast(g, payload_of(std::to_string(i) + ":" + std::to_string(k)));
        w.run_for(50_ms);
    }
    w.run_for(3_s);
    const auto reference = w.log_of(members[0], g);
    EXPECT_EQ(reference.size(), 30u);
    for (auto i : members) EXPECT_EQ(w.log_of(i, g), reference) << "at endpoint " << i;
}

TEST_P(OrderedGroup, CrashedMemberIsEjectedAndTrafficContinues) {
    make_group(3);
    world.ep(indices[0]).multicast(group, payload_of("before"));
    world.run_for(200_ms);
    // Crash the last-ranked member (not the sequencer).
    world.net.crash(world.orbs[indices[2]]->node_id());
    world.ep(indices[0]).multicast(group, payload_of("during"));
    world.run_for(2_s);
    for (auto i : {indices[0], indices[1]}) {
        ASSERT_TRUE(world.ep(i).is_member(group));
        EXPECT_EQ(world.ep(i).current_view(group)->members.size(), 2u) << "at " << i;
    }
    world.ep(indices[1]).multicast(group, payload_of("after"));
    world.run_for(1_s);
    for (auto i : {indices[0], indices[1]}) {
        EXPECT_EQ(world.log_of(i, group),
                  (std::vector<std::string>{"before", "during", "after"}))
            << "at " << i;
    }
}

TEST_P(OrderedGroup, LeaderCrashIsRecovered) {
    // Crashing the first-ranked member kills both the membership coordinator
    // and (in asymmetric mode) the sequencer; the survivors must agree on a
    // new view and keep ordering.
    make_group(3);
    world.run_for(100_ms);
    // Lowest endpoint id belongs to the creator (registered first).
    world.net.crash(world.orbs[indices[0]]->node_id());
    world.ep(indices[1]).multicast(group, payload_of("x"));
    world.ep(indices[2]).multicast(group, payload_of("y"));
    world.run_for(3_s);
    for (auto i : {indices[1], indices[2]}) {
        ASSERT_TRUE(world.ep(i).is_member(group)) << "at " << i;
        EXPECT_EQ(world.ep(i).current_view(group)->members.size(), 2u);
    }
    const auto reference = world.log_of(indices[1], group);
    EXPECT_EQ(reference.size(), 2u);
    EXPECT_EQ(world.log_of(indices[2], group), reference);
}

TEST_P(OrderedGroup, VirtualSynchronySameDeliveriesAcrossViewChange) {
    make_group(4);
    // Fire a burst and crash a member mid-burst.
    for (int k = 0; k < 8; ++k) {
        for (auto i : indices) world.ep(i).multicast(group, payload_of(std::to_string(i) + "#" + std::to_string(k)));
    }
    world.scheduler.schedule_after(1_ms, [&] {
        world.net.crash(world.orbs[indices[3]]->node_id());
    });
    world.run_for(4_s);
    const auto reference = world.log_of(indices[0], group);
    for (auto i : {indices[1], indices[2]}) {
        EXPECT_EQ(world.log_of(i, group), reference) << "at " << i;
    }
    // Survivors' own messages must all have been delivered (atomicity +
    // resubmission); the crashed member's messages may or may not appear,
    // but identically everywhere.
    for (auto sender : {indices[0], indices[1], indices[2]}) {
        for (int k = 0; k < 8; ++k) {
            const std::string want = std::to_string(sender) + "#" + std::to_string(k);
            EXPECT_NE(std::find(reference.begin(), reference.end(), want), reference.end())
                << "missing " << want;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Protocols, OrderedGroup,
                         ::testing::Values(OrderMode::kTotalSymmetric,
                                           OrderMode::kTotalAsymmetric),
                         [](const auto& info) {
                             return info.param == OrderMode::kTotalSymmetric ? "Symmetric"
                                                                             : "Asymmetric";
                         });

// -- holdback reporting -------------------------------------------------------------

struct HoldbackReporting : ::testing::TestWithParam<OrderMode> {};

TEST_P(HoldbackReporting, HeldBackMessageShowsInStatsAndLoadUntilDelivered) {
    // Three members on three sites; `first` has the lowest id (the
    // sequencer in asymmetric mode).  While the first <-> late link drops
    // everything, late misses m1 and every null and order record from
    // first, so the m2 it does receive from relay is held back in every
    // mode: symmetric waits on first's timestamp, asymmetric on first's
    // order record, causal on m1.
    Topology t;
    const SiteId s0 = t.add_site("S0", LinkParams{.latency = 300});
    const SiteId s1 = t.add_site("S1", LinkParams{.latency = 300});
    const SiteId s2 = t.add_site("S2", LinkParams{.latency = 300});
    t.set_link(s0, s1, LinkParams{.latency = 500});
    t.set_link(s0, s2, LinkParams{.latency = 500});
    t.set_link(s1, s2, LinkParams{.latency = 500});
    GcsWorld world(std::move(t));
    const auto first = world.add_endpoint(s0);
    const auto relay = world.add_endpoint(s1);
    const auto late = world.add_endpoint(s2);
    const GroupId g = world.ep(first).create_group("g", config_for(GetParam()));
    world.ep(relay).join_group("g");
    world.run_for(100_ms);
    world.ep(late).join_group("g");
    world.run_for(100_ms);
    ASSERT_EQ(world.ep(late).current_view(g)->members.size(), 3u);
    EXPECT_EQ(world.ep(late).group_stats(g).holdback, 0u);

    world.net.set_link_degrade(s0, s2, LinkDegrade{.extra_loss = 1.0});
    world.ep(first).multicast(g, payload_of("m1"));
    world.run_for(5_ms);
    world.ep(relay).multicast(g, payload_of("m2"));
    world.run_for(5_ms);
    EXPECT_EQ(world.ep(late).group_stats(g).holdback, 1u);
    EXPECT_EQ(world.ep(late).pending_load(), 1u);
    EXPECT_TRUE(world.log_of(late, g).empty());

    // Healed: first's next null exposes the gap, the NACK recovers m1 (and
    // the order records), and both messages are delivered.
    world.net.clear_link_degrade(s0, s2);
    world.run_for(500_ms);
    EXPECT_EQ(world.ep(late).group_stats(g).holdback, 0u);
    EXPECT_EQ(world.ep(late).pending_load(), 0u);
    EXPECT_EQ(world.log_of(late, g), (std::vector<std::string>{"m1", "m2"}));
    EXPECT_EQ(world.ep(late).current_view(g)->members.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, HoldbackReporting,
                         ::testing::Values(OrderMode::kTotalSymmetric,
                                           OrderMode::kTotalAsymmetric, OrderMode::kCausal),
                         [](const auto& info) {
                             switch (info.param) {
                                 case OrderMode::kTotalSymmetric: return "Symmetric";
                                 case OrderMode::kTotalAsymmetric: return "Asymmetric";
                                 case OrderMode::kCausal: return "Causal";
                             }
                             return "Unknown";
                         });

// -- causal mode -------------------------------------------------------------------

TEST_F(LanGcs, CausalModeDeliversCausallyRelatedInOrder) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    const auto c = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kCausal));
    world.oracle.options().causal_groups.insert(g.value());
    world.ep(b).join_group("g");
    world.run_for(100_ms);
    world.ep(c).join_group("g");
    world.run_for(100_ms);

    // b replies to a's message: everyone must see "ask" before "answer".
    world.ep(b).set_deliver_handler([&](const GroupCommEndpoint::Delivery& d) {
        world.delivered[b].push_back({d.group, d.sender, to_string(d.payload)});
        if (to_string(d.payload) == "ask") world.ep(b).multicast(g, payload_of("answer"));
    });
    world.ep(a).multicast(g, payload_of("ask"));
    world.run_for(1_s);
    for (auto i : {a, b, c}) {
        EXPECT_EQ(world.log_of(i, g), (std::vector<std::string>{"ask", "answer"})) << "at " << i;
    }
}

// -- overlapping groups (the fig. 7 property) -----------------------------------------

TEST_F(LanGcs, MemberCanBelongToManyGroupsSimultaneously) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    const GroupId g1 = world.ep(a).create_group("g1", config_for(OrderMode::kTotalSymmetric));
    const GroupId g2 = world.ep(a).create_group("g2", config_for(OrderMode::kTotalAsymmetric));
    world.ep(b).join_group("g1");
    world.ep(b).join_group("g2");
    world.run_for(200_ms);
    ASSERT_TRUE(world.ep(b).is_member(g1));
    ASSERT_TRUE(world.ep(b).is_member(g2));
    world.ep(a).multicast(g1, payload_of("one"));
    world.ep(a).multicast(g2, payload_of("two"));
    world.run_for(500_ms);
    EXPECT_EQ(world.log_of(b, g1), std::vector<std::string>{"one"});
    EXPECT_EQ(world.log_of(b, g2), std::vector<std::string>{"two"});
}

TEST(GcsOverlap, CrossGroupCausalityPreserved) {
    // Fig. 7 of the paper: gx = {A, B}; B also in gw with RM; A also in gz
    // with RM.  B sends m1 in gw, then m2 in gx; A, on delivering m2, sends
    // m3 in gz.  RM must deliver m1 before m3 even though the direct path
    // B->RM is far slower than B->A->RM.
    Topology t;
    const SiteId sa = t.add_site("A", LinkParams{.latency = 300});
    const SiteId sb = t.add_site("B", LinkParams{.latency = 300});
    const SiteId sr = t.add_site("RM", LinkParams{.latency = 300});
    t.set_link(sa, sb, LinkParams{.latency = 500});
    t.set_link(sa, sr, LinkParams{.latency = 500});
    t.set_link(sb, sr, LinkParams{.latency = 40'000});  // B -> RM is slow
    GcsWorld world(std::move(t));

    const auto a = world.add_endpoint(sa);
    const auto b = world.add_endpoint(sb);
    const auto rm = world.add_endpoint(sr);

    const GroupId gx = world.ep(a).create_group("gx", config_for(OrderMode::kTotalSymmetric));
    const GroupId gw = world.ep(b).create_group("gw", config_for(OrderMode::kTotalSymmetric));
    const GroupId gz = world.ep(a).create_group("gz", config_for(OrderMode::kTotalSymmetric));
    world.ep(b).join_group("gx");
    world.ep(rm).join_group("gw");
    world.ep(rm).join_group("gz");
    world.run_for(500_ms);
    ASSERT_TRUE(world.ep(b).is_member(gx));
    ASSERT_TRUE(world.ep(rm).is_member(gw));
    ASSERT_TRUE(world.ep(rm).is_member(gz));

    // A reacts to m2 by issuing m3.
    world.ep(a).set_deliver_handler([&](const GroupCommEndpoint::Delivery& d) {
        world.delivered[a].push_back({d.group, d.sender, to_string(d.payload)});
        if (to_string(d.payload) == "m2") world.ep(a).multicast(gz, payload_of("m3"));
    });

    world.ep(b).multicast(gw, payload_of("m1"));
    world.ep(b).multicast(gx, payload_of("m2"));
    world.run_for(2_s);

    // RM got both calls; causality says m1 first.
    std::vector<std::string> rm_order;
    for (const auto& entry : world.delivered[rm]) rm_order.push_back(entry.payload);
    ASSERT_EQ(rm_order.size(), 2u);
    EXPECT_EQ(rm_order[0], "m1");
    EXPECT_EQ(rm_order[1], "m3");
}

// -- partitions -------------------------------------------------------------------

TEST(GcsPartition, PartitionedSidesFormDisjointViews) {
    auto sites = calibration::make_paper_topology();
    GcsWorld world(std::move(sites.topology));
    const auto a0 = world.add_endpoint(sites.newcastle);
    const auto a1 = world.add_endpoint(sites.newcastle);
    const auto b0 = world.add_endpoint(sites.london);
    const auto b1 = world.add_endpoint(sites.london);

    GroupConfig cfg = config_for(OrderMode::kTotalSymmetric, LivenessMode::kLively);
    const GroupId g = world.ep(a0).create_group("g", cfg);
    for (auto i : {a1, b0, b1}) {
        world.ep(i).join_group("g");
        world.run_for(300_ms);
    }
    for (auto i : {a0, a1, b0, b1}) ASSERT_TRUE(world.ep(i).is_member(g));

    world.net.partition_site(sites.london, 1);
    world.run_for(5_s);

    // Each side keeps going with its own view (partitionable model).
    for (auto i : {a0, a1}) {
        ASSERT_TRUE(world.ep(i).is_member(g)) << "at " << i;
        EXPECT_EQ(world.ep(i).current_view(g)->members,
                  (std::vector<EndpointId>{world.ep(a0).id(), world.ep(a1).id()}));
    }
    for (auto i : {b0, b1}) {
        ASSERT_TRUE(world.ep(i).is_member(g)) << "at " << i;
        EXPECT_EQ(world.ep(i).current_view(g)->members,
                  (std::vector<EndpointId>{world.ep(b0).id(), world.ep(b1).id()}));
    }

    // Both partitions can still multicast internally.
    world.ep(a0).multicast(g, payload_of("north"));
    world.ep(b0).multicast(g, payload_of("south"));
    world.run_for(1_s);
    EXPECT_EQ(world.log_of(a1, g).back(), "north");
    EXPECT_EQ(world.log_of(b1, g).back(), "south");
}

// -- liveness ---------------------------------------------------------------------

TEST_F(LanGcs, LivelyGroupHeartbeatsWhenIdle) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric, LivenessMode::kLively));
    world.ep(b).join_group("g");
    world.run_for(100_ms);
    const GroupId g = world.ep(a).create_group("marker", config_for(OrderMode::kTotalSymmetric));
    (void)g;
    const auto before = world.net.metrics().counter(obs::metric::kNetMessagesSent);
    world.run_for(1_s);
    // Idle but lively: nulls keep flowing.
    EXPECT_GT(world.net.metrics().counter(obs::metric::kNetMessagesSent), before + 10);
}

TEST_F(LanGcs, EventDrivenGroupGoesQuietAfterDelivery) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    const GroupId g =
        world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    world.ep(b).join_group("g");
    world.run_for(100_ms);
    world.ep(a).multicast(g, payload_of("x"));
    world.run_for(2_s);  // delivery + stability tail
    const auto quiet_start = world.net.metrics().counter(obs::metric::kNetMessagesSent);
    world.run_for(2_s);
    EXPECT_EQ(world.net.metrics().counter(obs::metric::kNetMessagesSent), quiet_start);
    EXPECT_EQ(world.log_of(b, g), std::vector<std::string>{"x"});
}

// What the protocol's ORB legs cost the CPUs, pinned on a fixed seeded
// world: three LAN members, ten multicasts, run until no event is left.
// Each leg is a two-way ORB call whose empty reply the sender still
// unmarshals (§2.2), so a change that stops charging the reply leg, or
// charges it twice, moves both counters.  A receiver's unmarshal is charged
// per byte of the GCS frame, so a change to the frames' wire size moves
// the busy time (but not the task count).
TEST_F(LanGcs, ProtocolLegsCpuCostIsPinned) {
    for (int i = 0; i < 3; ++i) world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(0).create_group("g", config_for(OrderMode::kTotalAsymmetric));
    for (std::size_t i = 1; i < 3; ++i) {
        world.ep(i).join_group("g");
        world.run_for(100_ms);
    }
    for (std::uint64_t m = 0; m < 10; ++m) {
        world.ep(m % 3).multicast(g, payload_of(numbered("m", m)));
    }
    constexpr std::size_t kEventLimit = 1'000'000;
    ASSERT_LT(world.scheduler.run(kEventLimit), kEventLimit) << "the group never went quiet";
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(world.log_of(i, g).size(), 10u);
    EXPECT_EQ(world.net.metrics().counter(obs::metric::kCpuBusyUs), 23'932u);
    EXPECT_EQ(world.net.metrics().counter(obs::metric::kCpuTasks), 302u);
}

// -- send flow control / batching ----------------------------------------------------

TEST_F(LanGcs, BurstCoalescesUnderSendWindow) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    GroupConfig cfg = config_for(OrderMode::kTotalAsymmetric);
    cfg.order_window = 2;
    const GroupId g = world.ep(a).create_group("g", cfg);
    world.ep(b).join_group("g");
    world.run_for(100_ms);
    std::vector<std::string> expected;
    for (int k = 0; k < 40; ++k) {
        expected.push_back(numbered("m", k));
        world.ep(b).multicast(g, payload_of(expected.back()));
    }
    world.run_for(3_s);
    EXPECT_EQ(world.log_of(a, g), expected);
    EXPECT_EQ(world.log_of(b, g), expected);
    // With a window of 2, a 40-send burst must have coalesced...
    EXPECT_GT(world.net.metrics().counter("gcs.sends_coalesced"), 0u);
    // ...into multi-payload batches.
    const auto* batches = world.net.metrics().histogram("gcs.send_batch_payloads");
    ASSERT_NE(batches, nullptr);
    EXPECT_GT(batches->max(), SimDuration{1});
}

/// Records every trace event, calls `on_event` with it and passes it on to
/// the sink it replaced (restored on destruction).
class ForwardingSink final : public obs::TraceSink {
public:
    explicit ForwardingSink(obs::MetricsRegistry& metrics)
        : metrics_(&metrics), next_(metrics.trace_sink()) {
        metrics.set_trace_sink(this);
    }
    ForwardingSink(const ForwardingSink&) = delete;
    ForwardingSink& operator=(const ForwardingSink&) = delete;
    ~ForwardingSink() override { metrics_->set_trace_sink(next_); }

    void record(const obs::TraceEvent& event) override {
        events.push_back(event);
        if (next_ != nullptr) next_->record(event);
        if (on_event) on_event(event);
    }

    std::vector<obs::TraceEvent> events;
    std::function<void(const obs::TraceEvent&)> on_event;

private:
    obs::MetricsRegistry* metrics_;
    obs::TraceSink* next_;
};

// A coalesced DATA message reaches the application in one colocated
// hand-off: every payload at one sim instant (one CPU task runs them all;
// one task per payload would space them kLocalHandoffCost apart), in
// submission order; a crash while that hand-off is queued drops the whole
// batch.
TEST_F(LanGcs, CoalescedBatchIsOneHandoff) {
    for (int i = 0; i < 3; ++i) world.add_endpoint(SiteId(0));
    GroupConfig cfg = config_for(OrderMode::kTotalAsymmetric);
    cfg.order_window = 4;
    const GroupId g = world.ep(0).create_group("g", cfg);
    for (std::size_t i = 1; i < 3; ++i) {
        world.ep(i).join_group("g");
        world.run_for(100_ms);
    }
    std::vector<SimTime> handed_at[3];
    for (std::size_t i = 0; i < 3; ++i) {
        world.ep(i).set_deliver_handler([this, i, &handed_at](const GroupCommEndpoint::Delivery& d) {
            world.delivered[i].push_back({d.group, d.sender, to_string(d.payload)});
            handed_at[i].push_back(world.scheduler.now());
        });
    }
    ForwardingSink sink(world.net.metrics());
    std::vector<std::string> expected;
    for (int k = 0; k < 30; ++k) {
        expected.push_back(numbered("m", k));
        world.ep(1).multicast(g, payload_of(expected.back()));
    }
    world.run_for(2_s);

    // Per member: each delivered DATA message, in order, with its payloads.
    std::map<std::uint64_t, std::vector<std::size_t>> batch_sizes;
    for (const obs::TraceEvent& e : sink.events) {
        if (e.subject != g.value()) continue;
        if (e.kind == obs::TraceKind::kDataDelivered) batch_sizes[e.actor].push_back(0);
        if (e.kind == obs::TraceKind::kPayloadDelivered) ++batch_sizes[e.actor].back();
    }
    bool coalesced = false;
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_EQ(world.log_of(i, g), expected) << "member " << i;
        std::size_t next = 0;
        for (const std::size_t size : batch_sizes[world.ep(i).id().value()]) {
            coalesced |= size > 1;
            for (std::size_t p = 1; p < size; ++p) {
                EXPECT_EQ(handed_at[i][next + p], handed_at[i][next]) << "member " << i;
            }
            next += size;
        }
        EXPECT_EQ(next, expected.size());
    }
    ASSERT_TRUE(coalesced) << "the burst never coalesced";

    const std::uint64_t receiver = world.ep(2).id().value();

    // Crash the receiver while the hand-off of a coalesced message is queued.
    std::size_t delivered_before_crash = 0;
    bool crashed = false;
    sink.on_event = [&](const obs::TraceEvent& e) {
        if (crashed || e.actor != receiver || e.subject != g.value() ||
            e.kind != obs::TraceKind::kDataDelivered) {
            return;
        }
        crashed = true;
        delivered_before_crash = world.log_of(2, g).size();
        world.scheduler.schedule_after(0, [&] { world.net.crash(world.orbs[2]->node_id()); });
    };
    std::vector<std::string> second;
    for (int k = 0; k < 30; ++k) {
        second.push_back(numbered("n", k));
        world.ep(1).multicast(g, payload_of(second.back()));
    }
    world.run_for(2_s);
    ASSERT_TRUE(crashed);
    // The crash landed after the first message of the second burst was
    // released at the receiver, before its hand-off ran: none of it arrived.
    EXPECT_EQ(world.log_of(2, g).size(), delivered_before_crash);
    EXPECT_EQ(world.log_of(2, g), expected);
}

TEST_F(LanGcs, ZeroWindowDisablesCoalescing) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    GroupConfig cfg = config_for(OrderMode::kTotalAsymmetric);
    cfg.order_window = 0;
    const GroupId g = world.ep(a).create_group("g", cfg);
    world.ep(b).join_group("g");
    world.run_for(100_ms);
    std::vector<std::string> expected;
    for (int k = 0; k < 10; ++k) {
        expected.push_back(numbered("m", k));
        world.ep(b).multicast(g, payload_of(expected.back()));
    }
    world.run_for(2_s);
    EXPECT_EQ(world.log_of(a, g), expected);
    EXPECT_EQ(world.net.metrics().counter("gcs.sends_coalesced"), 0u);
}

// Oracle test: a view change landing while a burst is still coalesced in
// the sender's queue must neither drop nor reorder the unflushed tail.
// The OracleScope on the world checks the protocol invariants throughout.
TEST_F(LanGcs, ViewChangeMidBatchKeepsUnflushedTail) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    GroupConfig cfg = config_for(OrderMode::kTotalAsymmetric);
    cfg.order_window = 1;  // everything past the first send queues
    const GroupId g = world.ep(a).create_group("g", cfg);
    world.ep(b).join_group("g");
    world.run_for(100_ms);
    std::vector<std::string> expected;
    for (int k = 0; k < 25; ++k) {
        expected.push_back(numbered("m", k));
        world.ep(b).multicast(g, payload_of(expected.back()));
    }
    // Join lands while the tail of the burst is still queued at b.
    const auto c = world.add_endpoint(SiteId(0));
    world.ep(c).join_group("g");
    world.run_for(5_s);
    EXPECT_EQ(world.log_of(a, g), expected);
    EXPECT_EQ(world.log_of(b, g), expected);
    ASSERT_TRUE(world.ep(c).is_member(g));
    // b's full sequence survives at every original member, in order; c
    // (which joined mid-burst) sees a gap-free suffix of it.
    const auto at_c = world.log_of(c, g);
    EXPECT_TRUE(std::search(expected.begin(), expected.end(), at_c.begin(), at_c.end()) !=
                expected.end());
}

TEST_F(LanGcs, SymmetricModeAlsoCoalesces) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    GroupConfig cfg = config_for(OrderMode::kTotalSymmetric);
    cfg.order_window = 2;
    const GroupId g = world.ep(a).create_group("g", cfg);
    world.ep(b).join_group("g");
    world.run_for(100_ms);
    std::vector<std::string> expected;
    for (int k = 0; k < 30; ++k) {
        expected.push_back(numbered("s", k));
        world.ep(a).multicast(g, payload_of(expected.back()));
    }
    world.run_for(3_s);
    EXPECT_EQ(world.log_of(a, g), expected);
    EXPECT_EQ(world.log_of(b, g), expected);
    EXPECT_GT(world.net.metrics().counter("gcs.sends_coalesced"), 0u);
}

TEST_F(LanGcs, StabilityPrunesUnstableStore) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    const GroupId g = world.ep(a).create_group("g", config_for(OrderMode::kTotalSymmetric));
    world.ep(b).join_group("g");
    world.run_for(100_ms);
    for (int k = 0; k < 20; ++k) world.ep(a).multicast(g, payload_of(std::to_string(k)));
    world.run_for(3_s);
    EXPECT_EQ(world.ep(a).group_stats(g).unstable, 0u);
    EXPECT_EQ(world.ep(b).group_stats(g).unstable, 0u);
}

/// The GCS frame an ORB request carries to an endpoint servant, or nullopt
/// for anything else (replies, other methods).
std::optional<Bytes> gcs_frame(const Bytes& orb_wire) {
    Decoder d(orb_wire);
    if (d.get_u8() != 1) return std::nullopt;  // not a request
    d.get_u64();                               // request id
    d.get_bool();                              // oneway
    ObjectKey key;
    decode(d, key);
    if (d.get_u32() != kGcsDeliverMethod) return std::nullopt;
    const BytesView args = d.get_blob_view();
    return Bytes(args.begin(), args.end());
}

// An own message is held for retransmission as it was multicast, with its
// cross-group knowledge and causal vector attached, so a NACK gets the
// original frame back byte for byte and a member that lost the original
// still sees the message's causal predecessors.
TEST_F(LanGcs, NackRetransmitsOwnMessageWithItsKnowledge) {
    const auto a = world.add_endpoint(SiteId(0));
    const auto b = world.add_endpoint(SiteId(0));
    const GroupId other = world.ep(a).create_group("other", config_for(OrderMode::kTotalSymmetric));
    const GroupId causal = world.ep(a).create_group("causal", config_for(OrderMode::kCausal));
    world.ep(b).join_group("other");
    world.ep(b).join_group("causal");
    world.run_for(500_ms);
    ASSERT_TRUE(world.ep(b).is_member(other));
    ASSERT_TRUE(world.ep(b).is_member(causal));
    // B speaks in `other`, so A's next send in `causal` carries knowledge of it.
    world.ep(b).multicast(other, payload_of("from-b"));
    world.run_for(100_ms);
    ASSERT_EQ(world.log_of(a, other), std::vector<std::string>{"from-b"});

    // From here on B's node hands A's application frames in `causal` to the test.
    std::vector<Bytes> frames;
    const EndpointId sender = world.ep(a).id();
    world.net.node(world.orbs[b]->node_id()).set_receiver([&](NodeId, Bytes wire) {
        const std::optional<Bytes> frame = gcs_frame(wire);
        if (!frame) return;
        const GcsMessage msg = decode_gcs_message(*frame);
        const DataMsg* data = std::get_if<DataMsg>(&msg);
        if (data != nullptr && data->group == causal && data->sender == sender &&
            data->kind == DataKind::kApplication) {
            frames.push_back(*frame);
        }
    });
    world.ep(a).multicast(causal, payload_of("from-a"));
    world.run_for(20_ms);
    ASSERT_EQ(frames.size(), 1u);
    const DataMsg original = decode_data_message(frames[0]);
    EXPECT_FALSE(original.knowledge.empty());
    EXPECT_FALSE(original.causal_vc.empty());

    // B asks for it again.
    const NackMsg nack{causal, world.ep(a).current_view(causal)->epoch, world.ep(b).id(),
                       {original.seq}};
    world.orbs[b]->invoke(world.ep(a).service_ior(), kGcsDeliverMethod,
                          encode_gcs_message(GcsMessage{nack}), [](ReplyStatus, const Bytes&) {},
                          1_s);
    world.run_for(20_ms);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[1], frames[0]);
    EXPECT_EQ(world.net.metrics().counter(obs::metric::kGcsRetransmits), 1u);
}

// -- wire format ---------------------------------------------------------------------

TEST(GcsMessages, DataMsgRoundTrips) {
    DataMsg m;
    m.group = GroupId(3);
    m.epoch = 7;
    m.sender = EndpointId(9);
    m.seq = 42;
    m.ts = 1234;
    m.kind = DataKind::kApplication;
    m.knowledge = {{GroupId(1), 2, EndpointId(4), 5}};
    m.payload = payload_of("payload");
    m.received_counts = {{EndpointId(9), 43}};
    m.causal_vc = {{EndpointId(1), 2}};
    const GcsMessage out = decode_gcs_message(encode_gcs_message(m));
    const auto* decoded = std::get_if<DataMsg>(&out);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->seq, 42u);
    EXPECT_EQ(decoded->knowledge.size(), 1u);
    EXPECT_EQ(decoded->knowledge[0].count, 5u);
    EXPECT_EQ(to_string(decoded->payload), "payload");
}

TEST(GcsMessages, AllVariantsRoundTrip) {
    const View view{GroupId(1), 3, {EndpointId(1), EndpointId(2)}};
    DataMsg data;
    data.group = GroupId(1);
    data.epoch = 3;
    data.sender = EndpointId(2);
    data.seq = 4;
    data.ts = 5;
    data.kind = DataKind::kConfig;
    data.knowledge = {{GroupId(2), 1, EndpointId(3), 6}};
    data.payload = payload_of("head");
    data.batch = {payload_of("tail")};
    data.received_counts = {{EndpointId(1), 7}};
    data.causal_vc = {{EndpointId(2), 4}};
    data.sent_at = 99;
    data.span = obs::SpanContext{8, 9};
    data.batch_spans = {obs::SpanContext{10, 11}};
    const std::vector<GcsMessage> msgs{
        data,
        NackMsg{GroupId(1), 2, EndpointId(3), {4, 5}},
        JoinReq{GroupId(1), EndpointId(5)},
        LeaveReq{GroupId(1), EndpointId(6)},
        SuspectMsg{GroupId(1), 2, EndpointId(1), {EndpointId(9)}},
        ProposeMsg{GroupId(1), 2, 3, EndpointId(1), {EndpointId(1), EndpointId(2)}},
        FlushMsg{GroupId(1), 3, EndpointId(1), EndpointId(2), {data}, {{0, MsgRef{}}}},
        InstallMsg{GroupId(1), view, EndpointId(1), {data}, {{0, MsgRef{}}}, GroupConfig{}, 2, 7},
    };
    // No operator== on the messages: fidelity is encode/decode/encode byte
    // stability (a lossy decode cannot re-encode to the same bytes).
    for (const auto& msg : msgs) {
        const Bytes once = encode_gcs_message(msg);
        const GcsMessage out = decode_gcs_message(once);
        EXPECT_EQ(out.index(), msg.index());
        EXPECT_EQ(encode_gcs_message(out), once) << "lossy round-trip, variant " << msg.index();
    }
}

TEST(GcsMessages, GarbageRejected) {
    EXPECT_THROW(decode_gcs_message(Bytes{99}), DecodeError);
    EXPECT_THROW(decode_gcs_message(Bytes{}), DecodeError);
}

TEST(GcsMessages, DataFrameIsTheVariantFrame) {
    DataMsg m;
    m.group = GroupId(3);
    m.sender = EndpointId(2);
    m.seq = 5;
    m.knowledge = {KnowledgeEntry{GroupId(1), 2, EndpointId(4), 7}};
    m.payload = payload_of("frame");
    m.batch = {payload_of("more")};
    m.causal_vc = {{EndpointId(2), 1}};
    const Bytes frame = encode_gcs_message(m);
    EXPECT_EQ(frame, encode_gcs_message(GcsMessage{m}));
    EXPECT_EQ(encode_gcs_message(decode_data_message(frame)), frame);
    // Any other message, or a frame with bytes after the message, is refused.
    EXPECT_THROW(decode_data_message(encode_gcs_message(GcsMessage{LeaveReq{}})), DecodeError);
    Bytes trailing = frame;
    trailing.push_back(0);
    EXPECT_THROW(decode_data_message(trailing), DecodeError);
}

TEST(GcsMessages, DataMsgBatchRoundTrips) {
    DataMsg m;
    m.group = GroupId(3);
    m.epoch = 7;
    m.sender = EndpointId(9);
    m.seq = 42;
    m.ts = 1234;
    m.payload = payload_of("head");
    m.batch = {payload_of("second"), payload_of("third"), Bytes{}};
    const GcsMessage out = decode_gcs_message(encode_gcs_message(m));
    const auto* decoded = std::get_if<DataMsg>(&out);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(to_string(decoded->payload), "head");
    ASSERT_EQ(decoded->batch.size(), 3u);
    EXPECT_EQ(to_string(decoded->batch[0]), "second");
    EXPECT_EQ(to_string(decoded->batch[1]), "third");
    EXPECT_TRUE(decoded->batch[2].empty());
}

// Property: multi-assignment ORDER records round-trip for arbitrary batch
// sizes inside their DataKind::kOrder message, and every strict prefix of
// the encoding is rejected (no partial ORDER record can silently decode to
// fewer assignments).
TEST(GcsMessages, MultiAssignmentOrderRoundTripAndTruncationFuzz) {
    Rng rng(2026);
    for (int iter = 0; iter < 50; ++iter) {
        OrderRecord m;
        m.first_order = rng.next_in(0, 1000);
        const std::size_t refs = rng.next_in(1, 65);
        for (std::size_t i = 0; i < refs; ++i) {
            m.refs.push_back(MsgRef{EndpointId(rng.next_in(1, 8)),
                                    static_cast<Seqno>(rng.next_in(0, 500))});
        }
        DataMsg carrier;
        carrier.group = GroupId(rng.next_in(1, 9));
        carrier.epoch = rng.next_in(0, 5);
        carrier.kind = DataKind::kOrder;
        carrier.payload = encode_to_bytes(m);
        const Bytes wire = encode_gcs_message(carrier);
        const OrderRecord decoded =
            decode_from_bytes<OrderRecord>(decode_data_message(wire).payload);
        EXPECT_EQ(decoded.first_order, m.first_order);
        ASSERT_EQ(decoded.refs.size(), m.refs.size());
        EXPECT_TRUE(std::equal(m.refs.begin(), m.refs.end(), decoded.refs.begin()));
        // Truncation fuzz: sample strict prefixes (all for short wires), of
        // the record and of the frame that carries it.
        for (std::size_t cut = 0; cut < carrier.payload.size();
             cut += 1 + rng.next_in(0, carrier.payload.size() / 16)) {
            EXPECT_THROW(decode_from_bytes<OrderRecord>(BytesView{carrier.payload.data(), cut}),
                         DecodeError);
        }
        for (std::size_t cut = 0; cut < wire.size();
             cut += 1 + rng.next_in(0, wire.size() / 16)) {
            EXPECT_THROW(decode_gcs_message(BytesView{wire.data(), cut}), DecodeError);
        }
    }
}

TEST(GcsMessages, EncodeReservesExactly) {
    DataMsg m;
    m.group = GroupId(3);
    m.sender = EndpointId(9);
    m.payload = Bytes(1024, 0xab);
    m.batch = {Bytes(512, 0xcd), Bytes(256, 0xef)};
    const Bytes wire = encode_gcs_message(m);
    // The counting pass pre-sizes the buffer: no growth slack remains.
    EXPECT_EQ(wire.capacity(), wire.size());
}

TEST(GcsView, RankAndLeader) {
    View v{GroupId(1), 1, {EndpointId(3), EndpointId(5), EndpointId(9)}};
    EXPECT_EQ(v.leader(), EndpointId(3));
    EXPECT_EQ(v.rank_of(EndpointId(5)), 1u);
    EXPECT_EQ(v.rank_of(EndpointId(4)), std::nullopt);
    EXPECT_TRUE(v.contains(EndpointId(9)));
    EXPECT_FALSE(v.contains(EndpointId(2)));
}

TEST(GcsView, UnsortedWireViewRejected) {
    View v{GroupId(1), 1, {EndpointId(5), EndpointId(3)}};
    EXPECT_THROW(decode_from_bytes<View>(encode_to_bytes(v)), DecodeError);
}

// -- Cross-group causal knowledge ------------------------------------------------

// Merging a peer's snapshot walks it forward through the table; entries out
// of (group, sender) order must still land exactly as if noted one by one,
// and as the pair-keyed map the table replaced would hold them.
TEST(KnowledgeTable, MergeMatchesOneNotePerEntryInAnyOrder) {
    const auto key_less = [](const KnowledgeEntry& a, const KnowledgeEntry& b) {
        return std::tie(a.group, a.sender) < std::tie(b.group, b.sender);
    };
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        std::map<std::pair<GroupId, EndpointId>, std::pair<ViewEpoch, Seqno>> reference;
        KnowledgeTable merged;
        KnowledgeTable noted;
        for (int round = 0; round < 4; ++round) {
            std::vector<KnowledgeEntry> entries;
            const std::uint64_t n = rng.next_in(0, 12);
            for (std::uint64_t i = 0; i < n; ++i) {
                entries.push_back(KnowledgeEntry{GroupId(rng.next_in(1, 4)), rng.next_in(0, 3),
                                                 EndpointId(rng.next_in(1, 5)),
                                                 rng.next_in(0, 20)});
            }
            // A peer's snapshot arrives sorted; exercise the fallback too.
            if (rng.next_bool(0.5)) std::stable_sort(entries.begin(), entries.end(), key_less);
            merged.merge(entries);
            for (const KnowledgeEntry& e : entries) {
                noted.note(e);
                auto& slot = reference[{e.group, e.sender}];
                if (e.epoch > slot.first) {
                    slot = {e.epoch, e.count};
                } else if (e.epoch == slot.first) {
                    slot.second = std::max(slot.second, e.count);
                }
            }
            const GroupId excluding(rng.next_in(0, 4));
            std::vector<KnowledgeEntry> expected;
            for (const auto& [key, value] : reference) {
                if (key.first != excluding) {
                    expected.push_back(KnowledgeEntry{key.first, value.first, key.second,
                                                      value.second});
                }
            }
            const std::vector<KnowledgeEntry> snapshot = merged.snapshot(excluding);
            ASSERT_EQ(snapshot, expected) << "seed " << seed;
            ASSERT_EQ(encode_to_bytes(snapshot), encode_to_bytes(noted.snapshot(excluding)))
                << "seed " << seed;
        }
    }
}

}  // namespace
}  // namespace newtop
