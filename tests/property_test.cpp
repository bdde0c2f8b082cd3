// Randomised property tests over the whole stack.
//
// Each case builds a world from a (protocol, group size, network, seed)
// tuple, drives a randomised workload, and checks protocol invariants:
//
//   * total order: all members deliver identical sequences,
//   * completeness: every message multicast by a member that stays up is
//     delivered everywhere,
//   * virtual synchrony under random crashes: survivors' delivery
//     sequences are identical (same set, same order),
//   * causal legality in kCausal groups: a message is never delivered
//     before one of its causal predecessors.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "gcs/endpoint.hpp"
#include "gcs/messages.hpp"
#include "net/calibration.hpp"
#include "serial/decoder.hpp"
#include "serial/encoder.hpp"
#include "util/rng.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

struct PropWorld {
    PropWorld(Topology t, std::uint64_t seed) : net(scheduler, std::move(t), seed) {}

    std::size_t add_endpoint(SiteId site) {
        const NodeId node = net.add_node(site);
        orbs.push_back(std::make_unique<Orb>(net, node));
        auto ep = std::make_unique<GroupCommEndpoint>(*orbs.back(), directory);
        const std::size_t index = endpoints.size();
        delivered.emplace_back();
        ep->set_deliver_handler([this, index](const GroupCommEndpoint::Delivery& d) {
            delivered[index].push_back(std::string(d.payload.begin(), d.payload.end()));
        });
        endpoints.push_back(std::move(ep));
        return index;
    }

    void run_for(SimDuration d) { scheduler.run_until(scheduler.now() + d); }

    Scheduler scheduler;
    Network net;
    Directory directory;
    std::vector<std::unique_ptr<Orb>> orbs;
    std::vector<std::unique_ptr<GroupCommEndpoint>> endpoints;
    std::vector<std::vector<std::string>> delivered;
};

enum class Net : std::uint8_t { kLan, kLossyLan, kWan };

Topology topology_for(Net net) {
    switch (net) {
        case Net::kLan: return calibration::make_lan_topology();
        case Net::kLossyLan: {
            Topology t;
            t.add_site("LAN", LinkParams{.latency = 250, .jitter = 100, .loss = 0.05,
                                         .bytes_per_us = 12.5});
            return t;
        }
        case Net::kWan: return calibration::make_paper_topology().topology;
    }
    return calibration::make_lan_topology();
}

SiteId site_for(Net net, std::size_t index) {
    if (net == Net::kWan) return SiteId(static_cast<SiteId::rep_type>(index % 3));
    return SiteId(0);
}

using TotalOrderParam = std::tuple<OrderMode, int /*members*/, Net, int /*seed*/>;

struct TotalOrderProperty : ::testing::TestWithParam<TotalOrderParam> {};

TEST_P(TotalOrderProperty, AgreementAndCompleteness) {
    const auto [order, members, netkind, seed] = GetParam();
    PropWorld world(topology_for(netkind), static_cast<std::uint64_t>(seed) * 7919 + 13);
    Rng rng(static_cast<std::uint64_t>(seed) * 31 + 7);

    GroupConfig cfg;
    cfg.order = order;
    cfg.liveness = LivenessMode::kLively;

    GroupId g;
    for (int i = 0; i < members; ++i) {
        const auto idx = world.add_endpoint(site_for(netkind, static_cast<std::size_t>(i)));
        if (i == 0) {
            g = world.endpoints[idx]->create_group("g", cfg);
        } else {
            world.endpoints[idx]->join_group("g");
        }
        world.run_for(500_ms);
    }
    for (int i = 0; i < members; ++i) {
        ASSERT_TRUE(world.endpoints[static_cast<std::size_t>(i)]->is_member(g));
    }

    // Random multicast schedule: each member sends 3..8 messages at random
    // times across half a second.
    std::set<std::string> sent;
    for (int i = 0; i < members; ++i) {
        const int n = static_cast<int>(rng.next_in(3, 8));
        for (int k = 0; k < n; ++k) {
            const std::string text = std::to_string(i) + "/" + std::to_string(k);
            sent.insert(text);
            const SimTime at = world.scheduler.now() +
                               static_cast<SimTime>(rng.next_in(0, 500'000));
            world.scheduler.schedule_at(at, [&world, g, i, text] {
                world.endpoints[static_cast<std::size_t>(i)]->multicast(
                    g, Bytes(text.begin(), text.end()));
            });
        }
    }
    world.run_for(10_s);

    const auto& reference = world.delivered[0];
    EXPECT_EQ(reference.size(), sent.size()) << "missing deliveries";
    for (int i = 1; i < members; ++i) {
        EXPECT_EQ(world.delivered[static_cast<std::size_t>(i)], reference)
            << "member " << i << " disagrees on delivery order";
    }
    const std::set<std::string> got(reference.begin(), reference.end());
    EXPECT_EQ(got, sent);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TotalOrderProperty,
    ::testing::Combine(::testing::Values(OrderMode::kTotalSymmetric,
                                         OrderMode::kTotalAsymmetric),
                       ::testing::Values(2, 4, 6), ::testing::Values(Net::kLan, Net::kWan),
                       ::testing::Values(1, 2)),
    [](const auto& info) {
        std::string name =
            std::get<0>(info.param) == OrderMode::kTotalSymmetric ? "Sym" : "Asym";
        name += std::to_string(std::get<1>(info.param)) + "m";
        const Net netkind = std::get<2>(info.param);
        name += netkind == Net::kLan ? "Lan" : netkind == Net::kWan ? "Wan" : "Lossy";
        name += "S" + std::to_string(std::get<3>(info.param));
        return name;
    });

using LossParam = std::tuple<OrderMode, int /*seed*/>;

struct LossRecoveryProperty : ::testing::TestWithParam<LossParam> {};

TEST_P(LossRecoveryProperty, AgreementUnderLoss) {
    const auto [order, seed] = GetParam();
    PropWorld world(topology_for(Net::kLossyLan), static_cast<std::uint64_t>(seed) * 101 + 3);
    GroupConfig cfg;
    cfg.order = order;
    cfg.liveness = LivenessMode::kLively;

    GroupId g;
    for (int i = 0; i < 3; ++i) {
        const auto idx = world.add_endpoint(SiteId(0));
        if (i == 0) {
            g = world.endpoints[idx]->create_group("g", cfg);
        } else {
            world.endpoints[idx]->join_group("g");
        }
        world.run_for(3_s);
    }
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(world.endpoints[static_cast<std::size_t>(i)]->is_member(g));

    for (int k = 0; k < 12; ++k) {
        const std::string text = "m" + std::to_string(k);
        world.endpoints[static_cast<std::size_t>(k % 3)]->multicast(
            g, Bytes(text.begin(), text.end()));
        world.run_for(40_ms);
    }
    world.run_for(10_s);

    EXPECT_EQ(world.delivered[0].size(), 12u);
    EXPECT_EQ(world.delivered[1], world.delivered[0]);
    EXPECT_EQ(world.delivered[2], world.delivered[0]);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LossRecoveryProperty,
                         ::testing::Combine(::testing::Values(OrderMode::kTotalSymmetric,
                                                              OrderMode::kTotalAsymmetric),
                                            ::testing::Values(1, 2, 3)),
                         [](const auto& info) {
                             std::string name = std::get<0>(info.param) ==
                                                        OrderMode::kTotalSymmetric
                                                    ? "Sym"
                                                    : "Asym";
                             return name + "S" + std::to_string(std::get<1>(info.param));
                         });

using CrashParam = std::tuple<OrderMode, int /*seed*/>;

struct CrashSynchronyProperty : ::testing::TestWithParam<CrashParam> {};

TEST_P(CrashSynchronyProperty, SurvivorsAgreeAfterRandomCrash) {
    const auto [order, seed] = GetParam();
    PropWorld world(topology_for(Net::kLan), static_cast<std::uint64_t>(seed) * 53 + 1);
    Rng rng(static_cast<std::uint64_t>(seed) * 17 + 5);
    GroupConfig cfg;
    cfg.order = order;
    cfg.liveness = LivenessMode::kLively;

    constexpr int kMembers = 4;
    GroupId g;
    for (int i = 0; i < kMembers; ++i) {
        const auto idx = world.add_endpoint(SiteId(0));
        if (i == 0) {
            g = world.endpoints[idx]->create_group("g", cfg);
        } else {
            world.endpoints[idx]->join_group("g");
        }
        world.run_for(300_ms);
    }

    // Pick a victim (never member 0 so the assertion target survives) and a
    // random crash time inside the traffic burst.
    const auto victim = 1 + rng.next_in(0, kMembers - 2);
    const SimTime crash_at =
        world.scheduler.now() + static_cast<SimTime>(rng.next_in(1'000, 200'000));
    world.scheduler.schedule_at(crash_at, [&world, victim] {
        world.net.crash(world.orbs[victim]->node_id());
    });

    for (int k = 0; k < 10; ++k) {
        for (int i = 0; i < kMembers; ++i) {
            const std::string text = std::to_string(i) + "#" + std::to_string(k);
            const SimTime at = world.scheduler.now() +
                               static_cast<SimTime>(rng.next_in(0, 300'000));
            world.scheduler.schedule_at(at, [&world, g, i, text] {
                auto& ep = *world.endpoints[static_cast<std::size_t>(i)];
                if (ep.is_member(g)) ep.multicast(g, Bytes(text.begin(), text.end()));
            });
        }
    }
    world.run_for(15_s);

    // Virtual synchrony: all survivors delivered identical sequences.
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < kMembers; ++i) {
        if (i != victim) survivors.push_back(i);
    }
    const auto& reference = world.delivered[survivors[0]];
    for (const auto s : survivors) {
        EXPECT_EQ(world.delivered[s], reference) << "survivor " << s << " diverged";
    }
    // Completeness for survivors' own messages.
    for (const auto s : survivors) {
        for (int k = 0; k < 10; ++k) {
            const std::string want = std::to_string(s) + "#" + std::to_string(k);
            EXPECT_NE(std::find(reference.begin(), reference.end(), want), reference.end())
                << "missing " << want;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrashSynchronyProperty,
                         ::testing::Combine(::testing::Values(OrderMode::kTotalSymmetric,
                                                              OrderMode::kTotalAsymmetric),
                                            ::testing::Values(1, 2, 3, 4)),
                         [](const auto& info) {
                             std::string name = std::get<0>(info.param) ==
                                                        OrderMode::kTotalSymmetric
                                                    ? "Sym"
                                                    : "Asym";
                             return name + "S" + std::to_string(std::get<1>(info.param));
                         });

// -- causal legality -----------------------------------------------------------------

TEST(CausalLegalityProperty, DeliveriesNeverPrecedeTheirCauses) {
    // Members react to every delivery with probability 1/2 by multicasting
    // a response naming its cause; every member's log must show the cause
    // before the response.
    for (int seed = 1; seed <= 4; ++seed) {
        PropWorld world(topology_for(Net::kWan), static_cast<std::uint64_t>(seed));
        auto rng = std::make_shared<Rng>(static_cast<std::uint64_t>(seed) * 97);
        GroupConfig cfg;
        cfg.order = OrderMode::kCausal;
        cfg.liveness = LivenessMode::kLively;

        GroupId g;
        for (int i = 0; i < 3; ++i) {
            const auto idx = world.add_endpoint(site_for(Net::kWan, static_cast<std::size_t>(i)));
            if (i == 0) {
                g = world.endpoints[idx]->create_group("g", cfg);
            } else {
                world.endpoints[idx]->join_group("g");
            }
            world.run_for(500_ms);
        }

        int responses = 0;
        for (int i = 0; i < 3; ++i) {
            auto& ep = *world.endpoints[static_cast<std::size_t>(i)];
            const std::size_t index = static_cast<std::size_t>(i);
            ep.set_deliver_handler([&world, &ep, index, g, rng,
                                    &responses](const GroupCommEndpoint::Delivery& d) {
                const std::string text(d.payload.begin(), d.payload.end());
                world.delivered[index].push_back(text);
                if (responses < 30 && text.find("re:") == std::string::npos &&
                    rng->next_bool(0.5)) {
                    ++responses;
                    const std::string reply = "re:" + text + ":" + std::to_string(index);
                    ep.multicast(d.group, Bytes(reply.begin(), reply.end()));
                }
            });
        }

        for (int k = 0; k < 6; ++k) {
            const std::string text = "seed" + std::to_string(k);
            world.endpoints[static_cast<std::size_t>(k % 3)]->multicast(
                g, Bytes(text.begin(), text.end()));
            world.run_for(100_ms);
        }
        world.run_for(10_s);

        for (int i = 0; i < 3; ++i) {
            const auto& log = world.delivered[static_cast<std::size_t>(i)];
            std::map<std::string, std::size_t> position;
            for (std::size_t p = 0; p < log.size(); ++p) position[log[p]] = p;
            for (const auto& [text, pos] : position) {
                if (text.rfind("re:", 0) != 0) continue;
                // "re:<cause>:<responder>"
                const std::string cause = text.substr(3, text.rfind(':') - 3);
                ASSERT_TRUE(position.contains(cause))
                    << "response delivered without its cause at member " << i;
                EXPECT_LT(position[cause], pos)
                    << "causal violation at member " << i << " for " << text;
            }
        }
    }
}

// -- ConfigChangeMsg CDR ------------------------------------------------------
// The reconfiguration proposal rides the ordered data stream as an encoded
// payload, so its codec is on the protocol's critical path: random
// configurations must survive a round trip exactly, and any truncation
// must throw DecodeError rather than mis-decode or crash.

GroupConfig random_config(Rng& rng) {
    GroupConfig cfg;
    const std::uint64_t roll = rng.next_in(0, 2);
    cfg.order = roll == 0   ? OrderMode::kTotalSymmetric
                : roll == 1 ? OrderMode::kTotalAsymmetric
                            : OrderMode::kCausal;
    cfg.liveness = rng.next_bool(0.5) ? LivenessMode::kLively : LivenessMode::kEventDriven;
    cfg.order_window = static_cast<std::size_t>(rng.next_in(0, 128));
    cfg.adaptive_asym_threshold = static_cast<std::size_t>(rng.next_in(0, 16));
    cfg.phi_threshold_milli = rng.next_in(0, 20'000);
    return cfg;
}

TEST(ConfigChangeCdr, RoundTripsRandomProposals) {
    Rng rng(2026);
    for (int i = 0; i < 200; ++i) {
        ConfigChangeMsg msg;
        msg.group = GroupId(rng.next_in(1, 1u << 20));
        msg.next = random_config(rng);
        msg.nonce = rng.next_u64();
        Encoder e;
        encode(e, msg);
        const Bytes bytes = std::move(e).take();
        Decoder d(bytes);
        ConfigChangeMsg out;
        decode(d, out);
        EXPECT_TRUE(d.exhausted()) << "iteration " << i;
        EXPECT_EQ(out.group, msg.group) << "iteration " << i;
        EXPECT_TRUE(out.next == msg.next) << "iteration " << i;
        EXPECT_EQ(out.nonce, msg.nonce) << "iteration " << i;
    }
}

TEST(ConfigChangeCdr, EveryTruncationThrowsDecodeError) {
    Rng rng(7);
    ConfigChangeMsg msg;
    msg.group = GroupId(42);
    msg.next = random_config(rng);
    msg.nonce = 0x1234'5678'9abc'def0ULL;
    Encoder e;
    encode(e, msg);
    const Bytes bytes = std::move(e).take();
    ASSERT_GT(bytes.size(), 0u);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const Bytes prefix(bytes.begin(),
                           bytes.begin() + static_cast<std::ptrdiff_t>(cut));
        Decoder d(prefix);
        ConfigChangeMsg out;
        EXPECT_THROW(decode(d, out), DecodeError) << "prefix length " << cut;
    }
}

}  // namespace
}  // namespace newtop
