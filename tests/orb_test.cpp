#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/calibration.hpp"
#include "obs/names.hpp"
#include "orb/orb.hpp"
#include "util/check.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

constexpr std::uint32_t kEcho = 1;
constexpr std::uint32_t kAdd = 2;
constexpr std::uint32_t kBoom = 3;

/// Test servant: echoes, adds, or throws.
class TestServant : public Servant {
public:
    Bytes dispatch(std::uint32_t method, BytesView args) override {
        ++calls;
        switch (method) {
            case kEcho: return Bytes(args.begin(), args.end());
            case kAdd: {
                Decoder d(args);
                const auto a = d.get_i64();
                const auto b = d.get_i64();
                return encode_to_bytes(a + b);
            }
            case kBoom: throw ServantError("kaboom");
            default: throw ServantError("no such method");
        }
    }
    int calls{0};
};

struct OrbFixture : ::testing::Test {
    OrbFixture()
        : net(scheduler, calibration::make_lan_topology(), 42),
          client_node(net.add_node(SiteId(0))),
          server_node(net.add_node(SiteId(0))),
          client(net, client_node),
          server(net, server_node),
          servant(std::make_shared<TestServant>()),
          target(server.adapter().activate(servant, "Test")) {}

    Scheduler scheduler;
    Network net;
    NodeId client_node;
    NodeId server_node;
    Orb client;
    Orb server;
    std::shared_ptr<TestServant> servant;
    Ior target;
};

TEST_F(OrbFixture, RoundTripEcho) {
    Bytes got;
    ReplyStatus status{};
    client.invoke(target, kEcho, encode_to_bytes(std::string("ping")),
                  [&](ReplyStatus s, const Bytes& payload) {
                      status = s;
                      got = payload;
                  });
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kOk);
    EXPECT_EQ(decode_from_bytes<std::string>(got), "ping");
    EXPECT_EQ(servant->calls, 1);
}

TEST_F(OrbFixture, TypedAddCall) {
    Encoder e;
    e.put_i64(40);
    e.put_i64(2);
    std::int64_t result = 0;
    client.invoke(target, kAdd, std::move(e).take(), [&](ReplyStatus s, const Bytes& payload) {
        ASSERT_EQ(s, ReplyStatus::kOk);
        result = decode_from_bytes<std::int64_t>(payload);
    });
    scheduler.run();
    EXPECT_EQ(result, 42);
}

TEST_F(OrbFixture, LanRoundTripLatencyMatchesPaperAnchor) {
    // The paper's anchor: a plain CORBA call on the LAN is about 1 ms.
    SimTime completed = -1;
    client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus, const Bytes&) {
        completed = scheduler.now();
    });
    scheduler.run();
    EXPECT_GT(completed, 800);    // > 0.8 ms
    EXPECT_LT(completed, 1500);   // < 1.5 ms
}

TEST_F(OrbFixture, ServantExceptionPropagates) {
    ReplyStatus status{};
    std::string message;
    client.invoke(target, kBoom, Bytes{}, [&](ReplyStatus s, const Bytes& payload) {
        status = s;
        message = decode_from_bytes<std::string>(payload);
    });
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kException);
    EXPECT_EQ(message, "kaboom");
}

TEST_F(OrbFixture, UnknownObjectGivesNoObject) {
    Ior bogus{server_node, ObjectKey(9999), "Test"};
    ReplyStatus status{};
    client.invoke(bogus, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) { status = s; });
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kNoObject);
}

TEST_F(OrbFixture, DeactivatedObjectGivesNoObject) {
    server.adapter().deactivate(target.key);
    ReplyStatus status{};
    client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) { status = s; });
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kNoObject);
}

TEST_F(OrbFixture, TimeoutFiresWhenServerCrashed) {
    net.crash(server_node);
    ReplyStatus status{};
    SimTime at = -1;
    client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) {
        status = s;
        at = scheduler.now();
    }, 10_ms);
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kTimeout);
    EXPECT_EQ(at, 10_ms);
}

TEST_F(OrbFixture, HandlerRunsExactlyOnceWhenReplyBeatsTimeout) {
    int completions = 0;
    client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) {
        ++completions;
        EXPECT_EQ(s, ReplyStatus::kOk);
    }, 1_s);
    scheduler.run();
    EXPECT_EQ(completions, 1);
}

TEST_F(OrbFixture, CancelSuppressesHandler) {
    bool ran = false;
    const OrbCallId id =
        client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus, const Bytes&) { ran = true; });
    client.cancel(id);
    scheduler.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(servant->calls, 1);  // server still executed the request
}

// -- the call table ----------------------------------------------------------

TEST_F(OrbFixture, CallsCompleteOutOfOrderAndCancelLeavesTheRestAlone) {
    const NodeId dead_node = net.add_node(SiteId(0));
    Orb dead(net, dead_node);
    const Ior dead_target = dead.adapter().activate(std::make_shared<TestServant>(), "Test");
    net.crash(dead_node);

    std::vector<std::pair<int, ReplyStatus>> done;
    auto record = [&done](int call) {
        return [&done, call](ReplyStatus s, const Bytes&) { done.emplace_back(call, s); };
    };
    client.invoke(dead_target, kEcho, Bytes{}, record(1), 50_ms);
    client.invoke(target, kEcho, Bytes{}, record(2), 1_s);
    const OrbCallId third = client.invoke(target, kEcho, Bytes{}, record(3), 1_s);
    client.invoke(dead_target, kEcho, Bytes{}, record(4), 20_ms);
    client.invoke(target, kEcho, Bytes{}, record(5), 1_s);
    EXPECT_EQ(client.pending_calls(), 5u);
    client.cancel(third);
    client.cancel(third);  // already gone: no effect
    EXPECT_EQ(client.pending_calls(), 4u);
    scheduler.run();
    const std::vector<std::pair<int, ReplyStatus>> expected = {{2, ReplyStatus::kOk},
                                                               {5, ReplyStatus::kOk},
                                                               {4, ReplyStatus::kTimeout},
                                                               {1, ReplyStatus::kTimeout}};
    EXPECT_EQ(done, expected);
    EXPECT_EQ(client.pending_calls(), 0u);
    EXPECT_EQ(net.metrics().counter(obs::metric::kOrbCallTimeouts), 2u);
}

// Call deadlines queue per timeout value, apart from the other events, yet
// fire in the order a single queue of every event gives: by time, then by
// when each event was scheduled.  Here a deadline on one timeout's queue,
// a reply's completion and a deadline on a second timeout's queue all fall
// on the same microsecond, scheduled in that order.
TEST(OrbDeadlines, TwoTimeoutsAndAReplyOnOneMicrosecondFireInSchedulingOrder) {
    struct World {
        World()
            : net(scheduler, calibration::make_lan_topology(), 42),
              client(net, net.add_node(SiteId(0))),
              server(net, net.add_node(SiteId(0))),
              dead(net, net.add_node(SiteId(0))),
              target(server.adapter().activate(std::make_shared<TestServant>(), "Test")),
              dead_target(dead.adapter().activate(std::make_shared<TestServant>(), "Test")) {
            net.crash(dead.node_id());
        }
        Scheduler scheduler;
        Network net;
        Orb client;
        Orb server;
        Orb dead;
        Ior target;
        Ior dead_target;
    };
    using Fired = std::pair<char, SimTime>;

    // Probe: when the echo's reply completes, with the first dead call in
    // flight as in the real run (so the world draws the same randomness).
    SimTime reply_done = -1;
    {
        World w;
        w.client.invoke(w.target, kEcho, Bytes{},
                        [&](ReplyStatus, const Bytes&) { reply_done = w.scheduler.now(); });
        w.client.invoke(w.dead_target, kEcho, Bytes{}, [](ReplyStatus, const Bytes&) {}, 60_s);
        w.scheduler.run();
    }
    // The reply's completion is scheduled when the reply arrives, one
    // unmarshal before it runs; the second dead call is made after that.
    const SimDuration unmarshal = calibration::unmarshal_cost(0);
    const SimTime second_call_at = reply_done - unmarshal / 2;
    ASSERT_GT(second_call_at, 0);

    World w;
    std::vector<Fired> fired;
    auto record = [&](char call, ReplyStatus expected) {
        return [&fired, &w, call, expected](ReplyStatus status, const Bytes&) {
            EXPECT_EQ(status, expected) << call;
            fired.emplace_back(call, w.scheduler.now());
        };
    };
    w.client.invoke(w.target, kEcho, Bytes{}, record('R', ReplyStatus::kOk));
    w.client.invoke(w.dead_target, kEcho, Bytes{}, record('A', ReplyStatus::kTimeout),
                    reply_done);
    w.scheduler.schedule_at(second_call_at, [&] {
        w.client.invoke(w.dead_target, kEcho, Bytes{}, record('B', ReplyStatus::kTimeout),
                        reply_done - second_call_at);
    });
    w.scheduler.run();
    const std::vector<Fired> expected = {{'A', reply_done}, {'R', reply_done}, {'B', reply_done}};
    EXPECT_EQ(fired, expected);
}

TEST_F(OrbFixture, ReplyAfterTimeoutChargesNoCpu) {
    int completions = 0;
    client.invoke(target, kEcho, Bytes(64, 7), [&](ReplyStatus s, const Bytes&) {
        ++completions;
        EXPECT_EQ(s, ReplyStatus::kTimeout);
    }, 1);
    // Run until the server has executed the request: the client's
    // marshalling is done, and the reply is not back yet.
    while (servant->calls == 0) ASSERT_TRUE(scheduler.step());
    ASSERT_EQ(completions, 1);
    const SimDuration charged = net.node(client_node).cpu().consumed();
    scheduler.run();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(net.node(client_node).cpu().consumed(), charged);
    EXPECT_EQ(net.metrics().counter(obs::metric::kOrbRepliesReceived), 0u);
}

// Calls to a crashed peer sit at the front of the table until they time
// out, in id order.  Finished entries are dropped in bulk once they
// outnumber the unfinished ones, so the table stays within twice the calls
// in flight (plus the floor), and each compaction scans no more entries
// than twice the calls finished since the previous one: linear in total.
TEST_F(OrbFixture, ManyCallsToACrashedPeerTimeOutWithABoundedTable) {
    net.crash(server_node);
    constexpr std::size_t kCalls = 10'000;
    std::size_t timeouts = 0;
    std::size_t previous_size = kCalls;
    std::size_t scanned = 0;  // entries the compactions walked
    bool bounded = true;
    for (std::size_t i = 0; i < kCalls; ++i) {
        client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) {
            if (s == ReplyStatus::kTimeout) ++timeouts;
            const std::size_t size = client.call_table_size();
            bounded = bounded && size <= 2 * client.pending_calls() + Orb::kCompactFloor;
            if (size < previous_size) scanned += previous_size;
            previous_size = size;
        }, 60_s);
    }
    EXPECT_EQ(client.call_table_size(), kCalls);
    scheduler.run();
    EXPECT_EQ(timeouts, kCalls);
    EXPECT_TRUE(bounded);
    EXPECT_LE(scanned, 2 * kCalls);
    EXPECT_EQ(client.pending_calls(), 0u);
    EXPECT_LT(client.call_table_size(), Orb::kCompactFloor);
}

TEST_F(OrbFixture, OnewayExecutesWithoutReply) {
    client.invoke_oneway(target, kEcho, encode_to_bytes(std::string("fire")));
    scheduler.run();
    EXPECT_EQ(servant->calls, 1);
}

TEST_F(OrbFixture, OnewayServantExceptionIsSwallowed) {
    client.invoke_oneway(target, kBoom, Bytes{});
    EXPECT_NO_THROW(scheduler.run());
    EXPECT_EQ(servant->calls, 1);
}

TEST_F(OrbFixture, ConcurrentCallsCorrelateIndependently) {
    std::vector<std::int64_t> results(3, 0);
    for (int i = 0; i < 3; ++i) {
        Encoder e;
        e.put_i64(i);
        e.put_i64(100);
        client.invoke(target, kAdd, std::move(e).take(),
                      [&results, i](ReplyStatus s, const Bytes& payload) {
                          ASSERT_EQ(s, ReplyStatus::kOk);
                          results[static_cast<std::size_t>(i)] =
                              decode_from_bytes<std::int64_t>(payload);
                      });
    }
    scheduler.run();
    EXPECT_EQ(results, (std::vector<std::int64_t>{100, 101, 102}));
}

TEST_F(OrbFixture, ServerCpuSerializesRequests) {
    // Two concurrent clients: the second reply completes after the first
    // by at least the servant execution time (single-CPU server).
    const NodeId client2_node = net.add_node(SiteId(0));
    Orb client2(net, client2_node);
    SimTime done1 = -1, done2 = -1;
    client.invoke(target, kEcho, Bytes{}, [&](ReplyStatus, const Bytes&) {
        done1 = scheduler.now();
    });
    client2.invoke(target, kEcho, Bytes{}, [&](ReplyStatus, const Bytes&) {
        done2 = scheduler.now();
    });
    scheduler.run();
    ASSERT_GE(done1, 0);
    ASSERT_GE(done2, 0);
    EXPECT_NE(done1, done2);
}

TEST_F(OrbFixture, MalformedWireBytesAreDropped) {
    net.send(client_node, server_node, Bytes{0x07, 0x01});  // unknown type
    net.send(client_node, server_node, Bytes{});            // empty
    EXPECT_NO_THROW(scheduler.run());
}

TEST_F(OrbFixture, InvokeRequiresHandler) {
    EXPECT_THROW(client.invoke(target, kEcho, Bytes{}, nullptr), PreconditionError);
}

// -- IOGR (object group reference) failover ---------------------------------

struct IogrFixture : OrbFixture {
    IogrFixture()
        : backup_node(net.add_node(SiteId(0))),
          backup(net, backup_node),
          backup_servant(std::make_shared<TestServant>()),
          backup_ior(backup.adapter().activate(backup_servant, "Test")) {}

    NodeId backup_node;
    Orb backup;
    std::shared_ptr<TestServant> backup_servant;
    Ior backup_ior;
};

TEST_F(IogrFixture, PrimaryServesWhenHealthy) {
    Iogr group{{target, backup_ior}, 0};
    ReplyStatus status{};
    client.invoke_group(group, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) { status = s; },
                        20_ms);
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kOk);
    EXPECT_EQ(servant->calls, 1);
    EXPECT_EQ(backup_servant->calls, 0);
}

TEST_F(IogrFixture, FailsOverWhenPrimaryCrashed) {
    net.crash(server_node);
    Iogr group{{target, backup_ior}, 0};
    ReplyStatus status{};
    client.invoke_group(group, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) { status = s; },
                        20_ms);
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kOk);
    EXPECT_EQ(backup_servant->calls, 1);
}

TEST_F(IogrFixture, RespectsPrimaryIndex) {
    Iogr group{{target, backup_ior}, 1};  // backup designated primary
    client.invoke_group(group, kEcho, Bytes{}, [](ReplyStatus, const Bytes&) {}, 20_ms);
    scheduler.run();
    EXPECT_EQ(backup_servant->calls, 1);
    EXPECT_EQ(servant->calls, 0);
}

TEST_F(IogrFixture, AllMembersDownReportsTimeout) {
    net.crash(server_node);
    net.crash(backup_node);
    Iogr group{{target, backup_ior}, 0};
    ReplyStatus status{};
    client.invoke_group(group, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) { status = s; },
                        20_ms);
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kTimeout);
}

TEST_F(IogrFixture, FailsOverOnMissingObjectToo) {
    server.adapter().deactivate(target.key);
    Iogr group{{target, backup_ior}, 0};
    ReplyStatus status{};
    client.invoke_group(group, kEcho, Bytes{}, [&](ReplyStatus s, const Bytes&) { status = s; },
                        20_ms);
    scheduler.run();
    EXPECT_EQ(status, ReplyStatus::kOk);
    EXPECT_EQ(backup_servant->calls, 1);
}

TEST_F(IogrFixture, EmptyGroupRejected) {
    Iogr empty;
    EXPECT_THROW(
        client.invoke_group(empty, kEcho, Bytes{}, [](ReplyStatus, const Bytes&) {}, 20_ms),
        PreconditionError);
}

TEST_F(IogrFixture, IogrRoundTripsThroughSerialization) {
    Iogr group{{target, backup_ior}, 1};
    const Iogr out = decode_from_bytes<Iogr>(encode_to_bytes(group));
    EXPECT_EQ(out, group);
}

TEST_F(IogrFixture, MalformedIogrPrimaryIndexRejected) {
    Iogr group{{target}, 5};
    EXPECT_THROW(decode_from_bytes<Iogr>(encode_to_bytes(group)), DecodeError);
}

}  // namespace
}  // namespace newtop
