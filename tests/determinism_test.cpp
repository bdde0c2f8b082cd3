// Determinism and API-edge tests.
//
// The whole simulation is designed to be bit-reproducible from its seed —
// that is what makes the benchmark tables in EXPERIMENTS.md stable and
// failures replayable.  These tests run full scenarios twice and require
// identical histories, and pin down the public API's edge behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/calibration.hpp"
#include "newtop/newtop_service.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "orb/orb.hpp"
#include "util/check.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

constexpr std::uint32_t kEcho = 1;

class EchoServant : public GroupServant {
public:
    Bytes handle(std::uint32_t, const Bytes& args) override { return args; }
};

/// A scenario's history fingerprint and the scheduler events it ran.
struct ScenarioRun {
    std::string history;
    std::size_t events{0};
};

/// Runs a small mixed scenario (request/reply + peer traffic + a crash),
/// traced into `sink` when one is given.
ScenarioRun run_scenario(std::uint64_t seed, obs::TraceSink* sink = nullptr) {
    auto sites = calibration::make_paper_topology();
    Scheduler scheduler;
    Network net(scheduler, std::move(sites.topology), seed);
    net.metrics().set_trace_sink(sink);
    Directory directory;
    std::size_t events = 0;

    std::vector<std::unique_ptr<Orb>> orbs;
    std::vector<std::unique_ptr<NewTopService>> nsos;
    auto add = [&](SiteId site) -> NewTopService& {
        orbs.push_back(std::make_unique<Orb>(net, net.add_node(site)));
        nsos.push_back(std::make_unique<NewTopService>(*orbs.back(), directory));
        return *nsos.back();
    };

    std::ostringstream history;

    // Three servers + a WAN client.
    GroupConfig cfg;
    cfg.order = OrderMode::kTotalAsymmetric;
    cfg.liveness = LivenessMode::kLively;
    for (int i = 0; i < 3; ++i) {
        add(sites.newcastle).serve("svc", cfg,
                                   std::make_shared<EchoServant>());
        events += scheduler.run_until(scheduler.now() + 300_ms);
    }
    NewTopService& client = add(sites.pisa);
    GroupProxy proxy = client.bind("svc", {.mode = BindMode::kOpen, .restricted = true});

    // A peer group alongside.
    GroupConfig peer_cfg;
    peer_cfg.order = OrderMode::kTotalSymmetric;
    peer_cfg.liveness = LivenessMode::kLively;
    NewTopService& peer1 = add(sites.london);
    NewTopService& peer2 = add(sites.pisa);
    PeerGroup room1 = peer1.join_peer_group(
        "room", peer_cfg, [&](const NewTopService::PeerMessage& m) {
            history << "p1@" << scheduler.now() << ":"
                    << std::string(m.payload.begin(), m.payload.end()) << "\n";
        });
    events += scheduler.run_until(scheduler.now() + 300_ms);
    PeerGroup room2 = peer2.join_peer_group(
        "room", peer_cfg, [&](const NewTopService::PeerMessage& m) {
            history << "p2@" << scheduler.now() << ":"
                    << std::string(m.payload.begin(), m.payload.end()) << "\n";
        });
    events += scheduler.run_until(scheduler.now() + 500_ms);

    for (int k = 0; k < 5; ++k) {
        const std::string text = "peer" + std::to_string(k);
        (k % 2 == 0 ? room1 : room2).publish(Bytes(text.begin(), text.end()));
        proxy.invoke(kEcho, encode_to_bytes(std::string("call" + std::to_string(k))),
                     InvocationMode::kWaitAll, [&, k](const GroupReply& reply) {
                         history << "call" << k << "@" << scheduler.now() << ":"
                                 << reply.replies.size() << "\n";
                     });
        events += scheduler.run_until(scheduler.now() + 200_ms);
    }
    // Crash one server mid-run.
    net.crash(orbs[1]->node_id());
    proxy.invoke(kEcho, encode_to_bytes(std::string("post-crash")), InvocationMode::kWaitAll,
                 [&](const GroupReply& reply) {
                     history << "post@" << scheduler.now() << ":" << reply.replies.size()
                             << "\n";
                 });
    events += scheduler.run_until(scheduler.now() + 10_s);

    history << "msgs=" << net.metrics().counter(obs::metric::kNetMessagesSent)
            << " bytes=" << net.metrics().counter(obs::metric::kNetBytesSent)
            << " t=" << scheduler.now();
    return {history.str(), events};
}

TEST(Determinism, IdenticalSeedsProduceIdenticalHistories) {
    const ScenarioRun a = run_scenario(2026);
    const ScenarioRun b = run_scenario(2026);
    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.events, b.events);
}

TEST(Determinism, DifferentSeedsDiverge) {
    // Jitter and loss draws differ, so message counts/timings should too.
    const ScenarioRun a = run_scenario(1);
    const ScenarioRun b = run_scenario(2);
    EXPECT_NE(a.history, b.history);
}

TEST(Determinism, TracingLeavesTheHistoryUnchanged) {
    // Observing must not perturb the simulation: a trace sink records
    // events but schedules none and changes no protocol decision.
    obs::VectorTraceSink sink;
    const ScenarioRun traced = run_scenario(2026, &sink);
    const ScenarioRun untraced = run_scenario(2026);
    EXPECT_GT(sink.events().size(), 0u);
    EXPECT_EQ(traced.history, untraced.history);
    EXPECT_EQ(traced.events, untraced.events);
}

// -- container-order regression -------------------------------------------------------

/// Runtime companion to newtop_lint's `unordered-container` / `pointer-key`
/// rules.  Orb::pending_, ObjectAdapter::servants_ and Scheduler::cancelled_
/// used to be hash containers; any code iterating them could leak memory
/// layout into completion order.  This scenario churns all three — pending
/// calls with timeouts and cancellations, servant deactivate/re-activate,
/// IOGR failover — and runs twice in one process, so the second run sees a
/// different heap layout: an address-ordered sweep would diverge here.
/// (Hash iteration over *integral* keys repeats identically within a
/// process, which is exactly why that class is enforced by the lint rather
/// than sampled by this test.)
class ChurnServant : public Servant {
public:
    explicit ChurnServant(int id) : id_(id) {}
    Bytes dispatch(std::uint32_t, BytesView args) override {
        Bytes out(args.begin(), args.end());
        out.push_back(static_cast<std::uint8_t>(id_));
        return out;
    }

private:
    int id_;
};

std::string run_orb_churn(std::uint64_t seed) {
    Scheduler scheduler;
    Network net(scheduler, calibration::make_lan_topology(), seed);
    Orb client(net, net.add_node(SiteId(0)));
    std::vector<std::unique_ptr<Orb>> servers;
    std::vector<Ior> targets;
    for (int s = 0; s < 3; ++s) {
        servers.push_back(std::make_unique<Orb>(net, net.add_node(SiteId(0))));
        targets.push_back(
            servers.back()->adapter().activate(std::make_shared<ChurnServant>(s), "Churn"));
    }

    std::ostringstream history;
    auto record = [&](int call, ReplyStatus s, const Bytes& payload) {
        history << call << '@' << scheduler.now() << ':' << static_cast<int>(s) << ':'
                << payload.size() << '\n';
    };

    std::vector<OrbCallId> cancellable;
    for (int k = 0; k < 40; ++k) {
        const int which = k % 3;
        const OrbCallId id = client.invoke(
            targets[which], kEcho, encode_to_bytes(std::string("m") + std::to_string(k)),
            [&, k](ReplyStatus s, const Bytes& p) { record(k, s, p); },
            /*timeout=*/(k % 5 == 0) ? 2_ms : 80_ms);
        if (k % 7 == 0) cancellable.push_back(id);
        if (k % 11 == 3) {
            // Servant churn: kill and replace the target in place.
            servers[which]->adapter().deactivate(targets[which].key);
            targets[which] = servers[which]->adapter().activate(
                std::make_shared<ChurnServant>(which + 10), "Churn");
        }
        if (k % 9 == 4) scheduler.run_until(scheduler.now() + 1_ms);
    }
    for (OrbCallId id : cancellable) client.cancel(id);

    // IOGR failover sweeps across the (partially replaced) members.
    Iogr group;
    group.members = targets;
    group.primary_index = 1;
    for (int k = 0; k < 5; ++k) {
        client.invoke_group(
            group, kEcho, encode_to_bytes(std::string("g") + std::to_string(k)),
            [&, k](ReplyStatus s, const Bytes& p) { record(100 + k, s, p); }, 5_ms);
    }
    scheduler.run_until(scheduler.now() + 2_s);
    history << "msgs=" << net.metrics().counter(obs::metric::kNetMessagesSent)
            << " t=" << scheduler.now();
    return history.str();
}

TEST(Determinism, OrbChurnReproducibleAcrossHeapLayouts) {
    const std::string a = run_orb_churn(77);
    // Perturb the heap between the runs so any address-dependent ordering
    // inside the ORB or scheduler would see a different layout.
    std::vector<std::unique_ptr<int>> ballast;
    for (int i = 0; i < 1024; ++i) ballast.push_back(std::make_unique<int>(i));
    const std::string b = run_orb_churn(77);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find('@'), std::string::npos);  // some completions actually ran
}

// -- reconfiguration determinism ------------------------------------------------------

/// A runtime protocol switch right in the middle of a call burst.  The
/// switch path allocates (pending configs, parked sends, rebuilt ordering
/// engines), so this scenario is the regression net for any
/// address-dependent ordering introduced by reconfiguration: the same seed
/// must reproduce the same history bit-for-bit across heap layouts.
std::string run_reconfig_burst(std::uint64_t seed) {
    Scheduler scheduler;
    Network net(scheduler, calibration::make_lan_topology(), seed);
    Directory directory;

    std::vector<std::unique_ptr<Orb>> orbs;
    std::vector<std::unique_ptr<NewTopService>> nsos;
    auto add = [&]() -> NewTopService& {
        orbs.push_back(std::make_unique<Orb>(net, net.add_node(SiteId(0))));
        nsos.push_back(std::make_unique<NewTopService>(*orbs.back(), directory));
        return *nsos.back();
    };

    GroupConfig cfg;
    cfg.order = OrderMode::kTotalSymmetric;
    cfg.liveness = LivenessMode::kLively;
    for (int i = 0; i < 3; ++i) {
        add().serve("svc", cfg, std::make_shared<EchoServant>());
        scheduler.run_until(scheduler.now() + 300_ms);
    }
    NewTopService& client = add();
    GroupProxy proxy = client.bind("svc", {.mode = BindMode::kOpen});
    scheduler.run_until(scheduler.now() + 2_s);

    std::ostringstream history;
    for (int k = 0; k < 10; ++k) {
        proxy.invoke(kEcho, encode_to_bytes(std::string("r") + std::to_string(k)),
                     InvocationMode::kWaitAll, [&, k](const GroupReply& reply) {
                         history << "r" << k << "@" << scheduler.now() << ":"
                                 << reply.replies.size() << "\n";
                     });
        if (k == 4) {
            // Mid-burst: a member proposes the switch to the sequencer.
            const auto* info = directory.find_group("svc");
            GroupConfig next = cfg;
            next.order = OrderMode::kTotalAsymmetric;
            nsos[0]->reconfigure(info->id, next);
        }
        scheduler.run_until(scheduler.now() + 150_ms);
    }
    scheduler.run_until(scheduler.now() + 10_s);

    const auto* info = directory.find_group("svc");
    for (int i = 0; i < 3; ++i) {
        history << "epoch" << i << "=" << nsos[static_cast<std::size_t>(i)]->config_epoch(info->id)
                << "\n";
    }
    history << "msgs=" << net.metrics().counter(obs::metric::kNetMessagesSent)
            << " bytes=" << net.metrics().counter(obs::metric::kNetBytesSent)
            << " t=" << scheduler.now();
    return history.str();
}

TEST(Determinism, ReconfigMidBurstReproducibleAcrossHeapLayouts) {
    const std::string a = run_reconfig_burst(99);
    // Perturb the heap so address-dependent ordering would diverge.
    std::vector<std::unique_ptr<int>> ballast;
    for (int i = 0; i < 2048; ++i) ballast.push_back(std::make_unique<int>(i));
    const std::string b = run_reconfig_burst(99);
    EXPECT_EQ(a, b);
    // The switch really happened in both runs.
    EXPECT_NE(a.find("epoch0=1"), std::string::npos) << a;
}

// -- public API edges -----------------------------------------------------------------

struct ApiEdges : ::testing::Test {
    ApiEdges() : net(scheduler, calibration::make_lan_topology(), 3) {}

    NewTopService& add() {
        orbs.push_back(std::make_unique<Orb>(net, net.add_node(SiteId(0))));
        nsos.push_back(std::make_unique<NewTopService>(*orbs.back(), directory));
        return *nsos.back();
    }

    Scheduler scheduler;
    Network net;
    Directory directory;
    std::vector<std::unique_ptr<Orb>> orbs;
    std::vector<std::unique_ptr<NewTopService>> nsos;
};

TEST_F(ApiEdges, EmptyProxyRejectsCalls) {
    GroupProxy empty;
    EXPECT_THROW(empty.invoke(1, {}, InvocationMode::kWaitFirst, [](const GroupReply&) {}),
                 PreconditionError);
    EXPECT_THROW(empty.one_way(1, {}), PreconditionError);
    EXPECT_FALSE(empty.ready());
    EXPECT_EQ(empty.manager(), std::nullopt);
}

TEST_F(ApiEdges, TwoWayInvokeRequiresHandler) {
    NewTopService& server = add();
    server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
    NewTopService& client = add();
    GroupProxy proxy = client.bind("svc", {});
    EXPECT_THROW(proxy.invoke(1, {}, InvocationMode::kWaitAll, nullptr), PreconditionError);
}

TEST_F(ApiEdges, ServeTwiceRejected) {
    NewTopService& server = add();
    server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
    EXPECT_THROW(server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>()),
                 PreconditionError);
}

TEST_F(ApiEdges, ServeNullServantRejected) {
    NewTopService& server = add();
    EXPECT_THROW(server.serve("svc", GroupConfig{}, nullptr), PreconditionError);
}

TEST_F(ApiEdges, AsyncForwardingRequiresRestricted) {
    NewTopService& server = add();
    server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
    NewTopService& client = add();
    EXPECT_THROW(client.bind("svc", {.restricted = false, .async_forwarding = true}),
                 PreconditionError);
}

TEST_F(ApiEdges, BindGroupRequiresMembership) {
    NewTopService& server = add();
    server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
    NewTopService& outsider = add();
    EXPECT_THROW(outsider.bind_group(GroupId(999), "svc"), PreconditionError);
}

TEST_F(ApiEdges, PeerGroupRequiresHandler) {
    NewTopService& peer = add();
    EXPECT_THROW(peer.join_peer_group("room", GroupConfig{}, nullptr), PreconditionError);
}

TEST_F(ApiEdges, UnbindIsIdempotentAndStopsFurtherCalls) {
    NewTopService& server = add();
    server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
    NewTopService& client = add();
    GroupProxy proxy = client.bind("svc", {});
    scheduler.run_until(scheduler.now() + 2'000'000);
    ASSERT_TRUE(proxy.ready());
    proxy.unbind();
    proxy.unbind();  // harmless
    EXPECT_FALSE(proxy.ready());
}

TEST_F(ApiEdges, InvokeAfterAllServersGoneCompletesIncomplete) {
    NewTopService& server = add();
    server.serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
    NewTopService& client = add();
    GroupProxy proxy = client.bind("svc", {.call_timeout = 500'000});
    net.crash(orbs[0]->node_id());
    bool done = false;
    GroupReply result;
    proxy.invoke(1, {}, InvocationMode::kWaitAll, [&](const GroupReply& reply) {
        result = reply;
        done = true;
    });
    scheduler.run_until(scheduler.now() + 30'000'000);
    ASSERT_TRUE(done);
    EXPECT_FALSE(result.complete);
}

}  // namespace
}  // namespace newtop
