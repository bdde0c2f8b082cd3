#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/calibration.hpp"
#include "replication/active_replica.hpp"
#include "replication/passive_replica.hpp"
#include "util/check.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

constexpr std::uint32_t kGet = 1;
constexpr std::uint32_t kAppend = 2;

/// A stateful register: an append-only string, snapshot = contents.
class RegisterServant : public StatefulServant {
public:
    Bytes handle(std::uint32_t method, const Bytes& args) override {
        switch (method) {
            case kGet: return encode_to_bytes(contents_);
            case kAppend:
                ++executions;
                contents_ += decode_from_bytes<std::string>(args);
                return encode_to_bytes(contents_);
            default: throw ServantError("no such method");
        }
    }

    [[nodiscard]] Bytes snapshot() const override { return encode_to_bytes(contents_); }
    void restore(const Bytes& snapshot) override {
        contents_ = decode_from_bytes<std::string>(snapshot);
    }

    [[nodiscard]] const std::string& contents() const { return contents_; }
    int executions{0};

private:
    std::string contents_;
};

struct ReplWorld {
    ReplWorld() : net(scheduler, calibration::make_lan_topology(), 17) {}

    std::size_t add_nso() {
        const NodeId node = net.add_node(SiteId(0));
        orbs.push_back(std::make_unique<Orb>(net, node));
        nsos.push_back(std::make_unique<NewTopService>(*orbs.back(), directory));
        return nsos.size() - 1;
    }

    NewTopService& nso(std::size_t i) { return *nsos[i]; }
    void run_for(SimDuration d) { scheduler.run_until(scheduler.now() + d); }

    GroupReply call(GroupProxy& proxy, std::uint32_t method, Bytes args, InvocationMode mode,
                    SimDuration budget = 5_s) {
        GroupReply out;
        bool done = false;
        proxy.invoke(method, std::move(args), mode, [&](const GroupReply& r) {
            out = r;
            done = true;
        });
        run_for(budget);
        EXPECT_TRUE(done) << "call did not complete";
        return out;
    }

    Scheduler scheduler;
    Network net;
    Directory directory;
    std::vector<std::unique_ptr<Orb>> orbs;
    std::vector<std::unique_ptr<NewTopService>> nsos;
};

GroupConfig active_config() {
    GroupConfig cfg;
    cfg.order = OrderMode::kTotalAsymmetric;
    return cfg;
}

// -- active replication ----------------------------------------------------------------

TEST(ActiveReplication, FoundingMembersAreSyncedImmediately) {
    ReplWorld world;
    const auto s0 = world.add_nso();
    auto app = std::make_shared<RegisterServant>();
    ActiveReplica replica(world.nso(s0), "reg", active_config(), app);
    EXPECT_TRUE(replica.synced());
}

TEST(ActiveReplication, JoinerReceivesStateBeforeServing) {
    ReplWorld world;
    const auto s0 = world.add_nso();
    auto app0 = std::make_shared<RegisterServant>();
    ActiveReplica r0(world.nso(s0), "reg", active_config(), app0);

    // Put some state in before anyone else joins.
    const auto c = world.add_nso();
    GroupProxy proxy = world.nso(c).bind("reg", {.mode = BindMode::kOpen});
    world.call(proxy, kAppend, encode_to_bytes(std::string("abc")), InvocationMode::kWaitAll);
    ASSERT_EQ(app0->contents(), "abc");

    // A second replica joins mid-life and must catch up.
    const auto s1 = world.add_nso();
    auto app1 = std::make_shared<RegisterServant>();
    ActiveReplica r1(world.nso(s1), "reg", active_config(), app1);
    EXPECT_FALSE(r1.synced());
    world.run_for(2_s);
    ASSERT_TRUE(r1.synced());
    EXPECT_EQ(app1->contents(), "abc");
    EXPECT_EQ(app1->executions, 0);  // state came as a snapshot, not re-execution
}

TEST(ActiveReplication, JoinerAppliesRequestsOrderedAfterTheMarkerExactlyOnce) {
    ReplWorld world;
    const auto s0 = world.add_nso();
    auto app0 = std::make_shared<RegisterServant>();
    ActiveReplica r0(world.nso(s0), "reg", active_config(), app0);

    const auto c = world.add_nso();
    GroupProxy proxy = world.nso(c).bind("reg", {.mode = BindMode::kOpen});
    world.call(proxy, kAppend, encode_to_bytes(std::string("a")), InvocationMode::kWaitAll);

    const auto s1 = world.add_nso();
    auto app1 = std::make_shared<RegisterServant>();
    ActiveReplica r1(world.nso(s1), "reg", active_config(), app1);

    // Keep writing while the joiner synchronises.
    for (const char* piece : {"b", "c", "d"}) {
        proxy.invoke(kAppend, encode_to_bytes(std::string(piece)), InvocationMode::kWaitFirst,
                     [](const GroupReply&) {});
    }
    world.run_for(5_s);
    ASSERT_TRUE(r1.synced());
    EXPECT_EQ(app1->contents(), "abcd");
    EXPECT_EQ(app0->contents(), "abcd");
    // The joiner executed only what the snapshot did not cover.
    EXPECT_LE(app1->executions, 3);
}

TEST(ActiveReplication, GrownGroupServesWaitAllFromAllReplicas) {
    ReplWorld world;
    const auto s0 = world.add_nso();
    auto app0 = std::make_shared<RegisterServant>();
    ActiveReplica r0(world.nso(s0), "reg", active_config(), app0);

    const auto s1 = world.add_nso();
    auto app1 = std::make_shared<RegisterServant>();
    ActiveReplica r1(world.nso(s1), "reg", active_config(), app1);
    world.run_for(2_s);
    ASSERT_TRUE(r1.synced());

    const auto c = world.add_nso();
    GroupProxy proxy = world.nso(c).bind("reg", {.mode = BindMode::kOpen});
    const GroupReply reply = world.call(proxy, kAppend, encode_to_bytes(std::string("x")),
                                        InvocationMode::kWaitAll);
    ASSERT_TRUE(reply.complete);
    EXPECT_EQ(reply.replies.size(), 2u);
    EXPECT_EQ(app0->contents(), "x");
    EXPECT_EQ(app1->contents(), "x");
}

// -- passive replication ---------------------------------------------------------------

struct PassiveFixture : ::testing::Test {
    PassiveFixture() {
        // Lively server group: replicas heartbeat each other so a dead
        // primary is noticed even when no client traffic is flowing.
        GroupConfig cfg = active_config();
        cfg.liveness = LivenessMode::kLively;
        for (int i = 0; i < 3; ++i) {
            const auto idx = world.add_nso();
            apps.push_back(std::make_shared<RegisterServant>());
            replicas.push_back(
                std::make_unique<PassiveReplica>(world.nso(idx), "preg", cfg, apps.back()));
            world.run_for(300_ms);
            servers.push_back(idx);
        }
        client = world.add_nso();
        proxy = world.nso(client).bind(
            "preg",
            {.mode = BindMode::kOpen, .restricted = true, .async_forwarding = true});
        world.run_for(500_ms);
    }

    ReplWorld world;
    std::vector<std::size_t> servers;
    std::vector<std::shared_ptr<RegisterServant>> apps;
    std::vector<std::unique_ptr<PassiveReplica>> replicas;
    std::size_t client{};
    GroupProxy proxy;
};

TEST_F(PassiveFixture, OnlyThePrimaryExecutes) {
    const GroupReply reply = world.call(proxy, kAppend, encode_to_bytes(std::string("p")),
                                        InvocationMode::kWaitFirst);
    ASSERT_TRUE(reply.complete);
    EXPECT_TRUE(replicas[0]->is_primary());
    EXPECT_FALSE(replicas[1]->is_primary());
    EXPECT_EQ(apps[0]->executions, 1);
    EXPECT_EQ(apps[1]->executions, 0);
    EXPECT_EQ(apps[2]->executions, 0);
}

TEST_F(PassiveFixture, CheckpointsPropagateStateToBackups) {
    for (const char* piece : {"a", "b", "c", "d"}) {
        const GroupReply reply = world.call(proxy, kAppend, encode_to_bytes(std::string(piece)),
                                            InvocationMode::kWaitFirst);
        ASSERT_TRUE(reply.complete);
    }
    world.run_for(2_s);
    // kCheckpointEvery = 4: after 4 requests both backups hold "abcd" via
    // snapshots, without executing anything.
    EXPECT_EQ(apps[1]->contents(), "abcd");
    EXPECT_EQ(apps[2]->contents(), "abcd");
    EXPECT_EQ(apps[1]->executions, 0);
    EXPECT_EQ(apps[0]->contents(), "abcd");
    EXPECT_LE(replicas[1]->log_size(), 1u);
}

TEST_F(PassiveFixture, FailoverReplaysTheLoggedSuffix) {
    // Five writes: checkpoint after 4, the fifth lives only in the logs.
    for (const char* piece : {"a", "b", "c", "d", "e"}) {
        const GroupReply reply = world.call(proxy, kAppend, encode_to_bytes(std::string(piece)),
                                            InvocationMode::kWaitFirst);
        ASSERT_TRUE(reply.complete);
    }
    world.run_for(1_s);
    ASSERT_EQ(apps[0]->contents(), "abcde");
    ASSERT_EQ(replicas[1]->log_size(), 1u);

    world.net.crash(world.orbs[servers[0]]->node_id());
    world.run_for(5_s);
    ASSERT_TRUE(replicas[1]->is_primary());
    // The new primary replayed "e" on top of its "abcd" checkpoint.
    EXPECT_EQ(apps[1]->contents(), "abcde");

    // And it keeps serving: the proxy rebinds to it.
    const GroupReply reply = world.call(proxy, kAppend, encode_to_bytes(std::string("f")),
                                        InvocationMode::kWaitFirst, 10_s);
    ASSERT_TRUE(reply.complete);
    EXPECT_EQ(apps[1]->contents(), "abcdef");
    world.run_for(2_s);
    // The other backup holds the takeover checkpoint and logs "f".
    EXPECT_EQ(apps[2]->contents(), "abcde");
    EXPECT_EQ(replicas[2]->log_size(), 1u);
}

TEST_F(PassiveFixture, BackupsRemainConsistentAfterManyWrites) {
    // Twelve writes, a multiple of kCheckpointEvery: the last checkpoint
    // covers them all.
    std::string expected;
    for (int k = 0; k < 12; ++k) {
        const std::string piece(1, static_cast<char>('a' + k));
        expected += piece;
        const GroupReply reply =
            world.call(proxy, kAppend, encode_to_bytes(piece), InvocationMode::kWaitFirst);
        ASSERT_TRUE(reply.complete);
    }
    world.run_for(2_s);
    EXPECT_EQ(apps[0]->contents(), expected);
    EXPECT_EQ(apps[1]->contents(), expected);
    EXPECT_EQ(apps[2]->contents(), expected);
    EXPECT_EQ(apps[0]->executions, 12);
    EXPECT_EQ(apps[1]->executions, 0);
}

}  // namespace
}  // namespace newtop
