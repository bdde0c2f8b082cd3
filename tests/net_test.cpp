#include <gtest/gtest.h>

#include <vector>

#include "net/calibration.hpp"
#include "net/network.hpp"
#include "obs/names.hpp"
#include "util/check.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

Topology two_site_topology(LinkParams local, LinkParams wan) {
    Topology t;
    const SiteId a = t.add_site("A", local);
    const SiteId b = t.add_site("B", local);
    t.set_link(a, b, wan);
    return t;
}

struct NetFixture : ::testing::Test {
    Scheduler scheduler;
};

TEST_F(NetFixture, TopologyLinkLookup) {
    Topology t;
    const SiteId a = t.add_site("A", LinkParams{.latency = 10});
    const SiteId b = t.add_site("B", LinkParams{.latency = 20});
    t.set_link(a, b, LinkParams{.latency = 99});
    EXPECT_EQ(t.link(a, a).latency, 10);
    EXPECT_EQ(t.link(b, b).latency, 20);
    EXPECT_EQ(t.link(a, b).latency, 99);
    EXPECT_EQ(t.link(b, a).latency, 99);  // symmetric
    EXPECT_EQ(t.site_name(a), "A");
}

TEST_F(NetFixture, UnconfiguredLinkThrows) {
    Topology t;
    const SiteId a = t.add_site("A", LinkParams{});
    const SiteId b = t.add_site("B", LinkParams{});
    EXPECT_THROW((void)t.link(a, b), PreconditionError);
}

TEST_F(NetFixture, SelfLinkCannotBeSetAsWan) {
    Topology t;
    const SiteId a = t.add_site("A", LinkParams{});
    EXPECT_THROW(t.set_link(a, a, LinkParams{}), PreconditionError);
}

TEST_F(NetFixture, DeliveryAfterLatency) {
    Network net(scheduler, two_site_topology({.latency = 100}, {.latency = 5000}), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(0));
    SimTime arrived = -1;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { arrived = scheduler.now(); });
    net.send(a, b, Bytes{1, 2, 3});
    scheduler.run();
    EXPECT_EQ(arrived, 100);
}

TEST_F(NetFixture, WanLatencyAppliesAcrossSites) {
    Network net(scheduler, two_site_topology({.latency = 100}, {.latency = 5000}), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(1));
    SimTime arrived = -1;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { arrived = scheduler.now(); });
    net.send(a, b, Bytes{1});
    scheduler.run();
    EXPECT_EQ(arrived, 5000);
    EXPECT_EQ(net.metrics().counter(obs::metric::kNetWanMessages), 1u);
}

TEST_F(NetFixture, BandwidthAddsSerializationDelay) {
    // 2 bytes/us; 1000-byte payload => +500us.
    Network net(scheduler,
                two_site_topology({.latency = 100, .bytes_per_us = 2.0}, {.latency = 1}), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(0));
    SimTime arrived = -1;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { arrived = scheduler.now(); });
    net.send(a, b, Bytes(1000, 0));
    scheduler.run();
    EXPECT_EQ(arrived, 600);
}

TEST_F(NetFixture, JitterStaysWithinBound) {
    Network net(scheduler,
                two_site_topology({.latency = 100, .jitter = 50}, {.latency = 1}), 7);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(0));
    std::vector<SimTime> arrivals;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { arrivals.push_back(scheduler.now()); });
    SimTime send_at = 0;
    for (int i = 0; i < 100; ++i) {
        scheduler.schedule_at(send_at, [&net, a, b] { net.send(a, b, Bytes{1}); });
        send_at += 1000;
    }
    scheduler.run();
    ASSERT_EQ(arrivals.size(), 100u);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const SimTime delay = arrivals[i] - static_cast<SimTime>(i) * 1000;
        EXPECT_GE(delay, 100);
        EXPECT_LE(delay, 150);
    }
}

TEST_F(NetFixture, PerPairFifoOrderPreserved) {
    Network net(scheduler,
                two_site_topology({.latency = 100, .jitter = 90}, {.latency = 1}), 99);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(0));
    std::vector<std::uint8_t> received;
    net.node(b).set_receiver(
        [&](NodeId, const Bytes& payload) { received.push_back(payload.at(0)); });
    // Back-to-back sends with heavy jitter: FIFO must still hold.
    for (std::uint8_t i = 0; i < 50; ++i) net.send(a, b, Bytes{i});
    scheduler.run();
    ASSERT_EQ(received.size(), 50u);
    for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(received[i], i);
}

// The FIFO table grows with every add_node: links to and from a node added
// mid-run, and the links that were already carrying traffic, keep order.
TEST_F(NetFixture, PerPairFifoHoldsAcrossNodesAddedMidRun) {
    Network net(scheduler,
                two_site_topology({.latency = 100, .jitter = 90}, {.latency = 400, .jitter = 300}),
                5);
    std::vector<NodeId> nodes{net.add_node(SiteId(0)), net.add_node(SiteId(1))};
    // received[to][from]: payload counters in arrival order.
    std::vector<std::vector<std::vector<std::uint8_t>>> received;
    const auto attach = [&](NodeId id) {
        received.resize(id.value() + 1);
        net.node(id).set_receiver([&received, id](NodeId from, const Bytes& payload) {
            auto& row = received[id.value()];
            if (row.size() <= from.value()) row.resize(from.value() + 1);
            row[from.value()].push_back(payload.at(0));
        });
    };
    for (const NodeId id : nodes) attach(id);
    std::vector<std::vector<std::uint8_t>> sent(8, std::vector<std::uint8_t>(8, 0));
    const auto burst = [&] {
        for (const NodeId from : nodes) {
            for (const NodeId to : nodes) {
                if (from == to) continue;
                std::uint8_t& next = sent[from.value()][to.value()];
                for (int i = 0; i < 5; ++i) net.send(from, to, Bytes{next++});
            }
        }
    };
    SimTime at = 0;
    for (int round = 0; round < 6; ++round, at += 150) {
        scheduler.schedule_at(at, [&, round] {
            if (round % 2 == 1) {
                const SiteId site(static_cast<SiteId::rep_type>(round % 3 == 0));
                nodes.push_back(net.add_node(site));
                attach(nodes.back());
            }
            burst();
        });
    }
    scheduler.run();
    ASSERT_EQ(nodes.size(), 5u);
    for (const NodeId from : nodes) {
        for (const NodeId to : nodes) {
            if (from == to) continue;
            const std::uint8_t count = sent[from.value()][to.value()];
            ASSERT_GT(count, 0);
            ASSERT_GT(received[to.value()].size(), from.value());
            const auto& got = received[to.value()][from.value()];
            ASSERT_EQ(got.size(), count) << from.value() << "->" << to.value();
            for (std::uint8_t i = 0; i < count; ++i) EXPECT_EQ(got[i], i);
        }
    }
}

TEST_F(NetFixture, LossDropsApproximatelyTheConfiguredFraction) {
    Network net(scheduler,
                two_site_topology({.latency = 10, .loss = 0.25}, {.latency = 1}), 5);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(0));
    int received = 0;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { ++received; });
    for (int i = 0; i < 2000; ++i) net.send(a, b, Bytes{1});
    scheduler.run();
    EXPECT_NEAR(received, 1500, 120);
    EXPECT_EQ(net.metrics().counter(obs::metric::kNetMessagesLost) +
                  net.metrics().counter(obs::metric::kNetMessagesDelivered),
              2000u);
}

TEST_F(NetFixture, CrashedReceiverDropsMessages) {
    Network net(scheduler, two_site_topology({.latency = 10}, {.latency = 1}), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(0));
    bool got = false;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { got = true; });
    net.crash(b);
    net.send(a, b, Bytes{1});
    scheduler.run();
    EXPECT_FALSE(got);
}

TEST_F(NetFixture, CrashedSenderCannotSend) {
    Network net(scheduler, two_site_topology({.latency = 10}, {.latency = 1}), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(0));
    bool got = false;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { got = true; });
    net.crash(a);
    net.send(a, b, Bytes{1});
    scheduler.run();
    EXPECT_FALSE(got);
}

TEST_F(NetFixture, CrashMidFlightDropsAtArrival) {
    Network net(scheduler, two_site_topology({.latency = 100}, {.latency = 1}), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(0));
    bool got = false;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { got = true; });
    net.send(a, b, Bytes{1});
    scheduler.schedule_at(50, [&] { net.crash(b); });
    scheduler.run();
    EXPECT_FALSE(got);
}

TEST_F(NetFixture, PartitionBlocksCrossCellTraffic) {
    Network net(scheduler, two_site_topology({.latency = 10}, {.latency = 1}), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(0));
    int got = 0;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { ++got; });
    net.set_partition(b, 1);
    net.send(a, b, Bytes{1});
    scheduler.run();
    EXPECT_EQ(got, 0);
    net.heal();
    net.send(a, b, Bytes{1});
    scheduler.run();
    EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, PartitionAppliesAtDeliveryTime) {
    // A message in flight when the partition forms is lost (the simulated
    // path went down before arrival).
    Network net(scheduler, two_site_topology({.latency = 100}, {.latency = 1}), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(0));
    int got = 0;
    net.node(b).set_receiver([&](NodeId, const Bytes&) { ++got; });
    net.send(a, b, Bytes{1});
    scheduler.schedule_at(50, [&] { net.set_partition(b, 2); });
    scheduler.run();
    EXPECT_EQ(got, 0);
}

TEST_F(NetFixture, PartitionSiteMovesAllItsNodes) {
    Network net(scheduler, two_site_topology({.latency = 10}, {.latency = 100}), 1);
    const NodeId a0 = net.add_node(SiteId(0));
    const NodeId a1 = net.add_node(SiteId(0));
    const NodeId b0 = net.add_node(SiteId(1));
    int intra = 0, inter = 0;
    net.node(a1).set_receiver([&](NodeId, const Bytes&) { ++intra; });
    net.node(b0).set_receiver([&](NodeId, const Bytes&) { ++inter; });
    net.partition_site(SiteId(1), 3);
    net.send(a0, a1, Bytes{1});
    net.send(a0, b0, Bytes{1});
    scheduler.run();
    EXPECT_EQ(intra, 1);  // same-site traffic unaffected
    EXPECT_EQ(inter, 0);  // cross-partition traffic dropped
}

TEST_F(NetFixture, StatsCountMessagesAndBytes) {
    Network net(scheduler, two_site_topology({.latency = 10}, {.latency = 1}), 1);
    const NodeId a = net.add_node(SiteId(0));
    const NodeId b = net.add_node(SiteId(0));
    net.node(b).set_receiver([](NodeId, const Bytes&) {});
    net.send(a, b, Bytes(10, 0));
    net.send(a, b, Bytes(20, 0));
    scheduler.run();
    EXPECT_EQ(net.metrics().counter(obs::metric::kNetMessagesSent), 2u);
    EXPECT_EQ(net.metrics().counter(obs::metric::kNetMessagesDelivered), 2u);
    EXPECT_EQ(net.metrics().counter(obs::metric::kNetBytesSent), 30u);
}

TEST_F(NetFixture, PaperTopologyHasThreeSitesAndAllLinks) {
    auto sites = calibration::make_paper_topology();
    EXPECT_EQ(sites.topology.site_count(), 3u);
    EXPECT_GT(sites.topology.link(sites.newcastle, sites.london).latency, 0);
    EXPECT_GT(sites.topology.link(sites.newcastle, sites.pisa).latency, 0);
    EXPECT_GT(sites.topology.link(sites.london, sites.pisa).latency, 0);
    // WAN paths are at least an order of magnitude slower than the LAN.
    EXPECT_GT(sites.topology.link(sites.newcastle, sites.pisa).latency,
              10 * sites.topology.link(sites.newcastle, sites.newcastle).latency);
}

TEST_F(NetFixture, UnknownNodeRejected) {
    Network net(scheduler, calibration::make_lan_topology(), 1);
    EXPECT_THROW(net.node(NodeId(5)), PreconditionError);
    EXPECT_THROW(net.add_node(SiteId(9)), PreconditionError);
}

}  // namespace
}  // namespace newtop
