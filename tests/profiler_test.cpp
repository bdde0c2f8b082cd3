// Latency-attribution profiler: a synthetic open-mode invocation with known
// injected constants per phase boundary (link delay -> wire, packed CPU
// service time -> execution, holdback stall -> order_wait, ...), real
// traced worlds whose phase sums must reconcile exactly with the reply-wait
// histograms, the truncated-dump refusal (profiler and oracle), dump JSON
// round-trips and edge-case dumps.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/calibration.hpp"
#include "newtop/newtop_service.hpp"
#include "obs/names.hpp"
#include "obs/oracle.hpp"
#include "obs/profiler.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

// -- synthetic chain with injected constants ----------------------------------

constexpr std::uint64_t kTrace = 77;
constexpr std::uint64_t kClient = 1, kManager = 2, kServer = 3;
constexpr std::uint64_t kClientSpan = 11, kManagerSpan = 22, kExecSpan = 33;
constexpr std::uint64_t kBinding = 7, kGroup = 9, kSeq = 5;

obs::TraceEvent ev(obs::TraceKind kind, SimTime at, std::uint64_t actor, std::uint64_t span,
                   std::uint64_t parent = 0, std::uint64_t subject = 0,
                   std::uint64_t detail = 0) {
    obs::TraceEvent e;
    e.at = at;
    e.kind = kind;
    e.actor = actor;
    e.subject = subject;
    e.detail = detail;
    e.trace = kTrace;
    e.span = span;
    e.parent = parent;
    return e;
}

/// One open-mode invocation, client -> manager -> server -> manager ->
/// client, with hand-picked boundary gaps:
///   marshal 40+20+20+10, credit_wait 10+5+5+5, wire 250 per hop (the
///   injected link delay), order_wait 30 per delivery (the holdback stall),
///   cpu_wait 20+10+20, execution 60 (packed into kExecutionBegun).
obs::TraceDump synthetic_open_mode_dump() {
    using K = obs::TraceKind;
    obs::TraceDump dump;
    auto& e = dump.events;
    // Request: client multicast into the cs group.
    e.push_back(ev(K::kRequestSent, 1000, kClient, kClientSpan, 0, kBinding, kSeq));
    e.push_back(ev(K::kMulticastSent, 1040, kClient, kClientSpan, 0, kGroup));
    e.push_back(ev(K::kPayloadShipped, 1050, kClient, kClientSpan, 0, kGroup, 101));
    e.push_back(ev(K::kDataArrived, 1050, kClient, kClientSpan, 0, kGroup, 101));  // self
    e.push_back(ev(K::kDataDelivered, 1060, kClient, kClientSpan, 0, kGroup, 101));
    e.push_back(ev(K::kPayloadDelivered, 1060, kClient, kClientSpan, 0, kGroup, 101));
    e.push_back(ev(K::kDataArrived, 1300, kManager, kClientSpan, 0, kGroup, 101));
    e.push_back(ev(K::kDataDelivered, 1330, kManager, kClientSpan, 0, kGroup, 101));
    e.push_back(ev(K::kPayloadDelivered, 1330, kManager, kClientSpan, 0, kGroup, 101));
    // Manager becomes the request manager and forwards to the server group.
    e.push_back(ev(K::kRequestForwarded, 1350, kManager, kManagerSpan, kClientSpan, kClient,
                   kSeq));
    e.push_back(ev(K::kMulticastSent, 1370, kManager, kManagerSpan, 0, kGroup));
    e.push_back(ev(K::kPayloadShipped, 1375, kManager, kManagerSpan, 0, kGroup, 102));
    e.push_back(ev(K::kDataArrived, 1625, kServer, kManagerSpan, 0, kGroup, 102));
    e.push_back(ev(K::kPayloadDelivered, 1655, kServer, kManagerSpan, 0, kGroup, 102));
    // Execution: 10us queue wait before the begun event, then the packed
    // 60us service time inside an 80us begun->done interval (20us queued).
    e.push_back(ev(K::kExecutionBegun, 1665, kServer, kExecSpan, kManagerSpan, kClient,
                   obs::pack_execution_detail(60, kSeq)));
    e.push_back(ev(K::kExecutionDone, 1745, kServer, kExecSpan, kManagerSpan, kClient, kSeq));
    // Reply multicast back inside the server group.
    e.push_back(ev(K::kMulticastSent, 1765, kServer, kExecSpan, 0, kGroup));
    e.push_back(ev(K::kPayloadShipped, 1770, kServer, kExecSpan, 0, kGroup, 103));
    e.push_back(ev(K::kDataArrived, 2020, kManager, kExecSpan, 0, kGroup, 103));
    e.push_back(ev(K::kPayloadDelivered, 2050, kManager, kExecSpan, 0, kGroup, 103));
    e.push_back(ev(K::kReplyCollected, 2060, kManager, kManagerSpan, kExecSpan, kServer, kSeq));
    // Aggregate back to the client.
    e.push_back(ev(K::kAggregateSent, 2070, kManager, kManagerSpan, 0, kClient, kSeq));
    e.push_back(ev(K::kMulticastSent, 2080, kManager, kManagerSpan, 0, kGroup));
    e.push_back(ev(K::kPayloadShipped, 2085, kManager, kManagerSpan, 0, kGroup, 104));
    e.push_back(ev(K::kDataArrived, 2335, kClient, kManagerSpan, 0, kGroup, 104));
    e.push_back(ev(K::kPayloadDelivered, 2365, kClient, kManagerSpan, 0, kGroup, 104));
    e.push_back(ev(K::kCallCompleted, 2375, kClient, kClientSpan, 0, kBinding,
                   obs::pack_completion_detail(1, kSeq)));
    dump.expectations.push_back(
        obs::TraceExpectation{std::string(obs::metric::kInvReplyWaitFirst), 1, 1375});
    // Two kDataDelivered for message 101: self at +10, manager at +280.
    dump.expectations.push_back(
        obs::TraceExpectation{std::string(obs::metric::kGcsDeliveryLatencyUs), 2, 290});
    return dump;
}

TEST(Profiler, SyntheticChainAttributesEveryInjectedConstant) {
    const obs::ProfileReport report =
        obs::LatencyProfiler{}.analyze(synthetic_open_mode_dump());
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.invocations, 1u);
    EXPECT_EQ(report.unattributed, 0u);

    const auto sum = [&](std::string_view phase) {
        return report.phases.at(std::string(phase)).sum_us;
    };
    EXPECT_EQ(sum(obs::phase::kMarshal), 90);
    EXPECT_EQ(sum(obs::phase::kCreditWait), 25);
    EXPECT_EQ(sum(obs::phase::kWire), 1000);      // 4 hops x injected 250us
    EXPECT_EQ(sum(obs::phase::kOrderWait), 120);  // 4 deliveries x 30us stall
    EXPECT_EQ(sum(obs::phase::kCpuWait), 50);
    EXPECT_EQ(sum(obs::phase::kExecution), 60);  // the packed service time
    EXPECT_EQ(sum(obs::phase::kReplyCollection), 30);
    // Telescoping: phases sum exactly to the end-to-end latency.
    EXPECT_EQ(sum(obs::phase::kMarshal) + sum(obs::phase::kCreditWait) +
                  sum(obs::phase::kWire) + sum(obs::phase::kOrderWait) +
                  sum(obs::phase::kCpuWait) + sum(obs::phase::kExecution) +
                  sum(obs::phase::kReplyCollection),
              1375);
    EXPECT_EQ(report.dominant, obs::phase::kWire);

    ASSERT_EQ(report.groups.size(), 1u);
    EXPECT_EQ(report.groups[0].binding, kBinding);
    EXPECT_EQ(report.groups[0].mode, 1u);
    EXPECT_EQ(report.groups[0].chains, 1u);
    EXPECT_EQ(report.groups[0].total_us, 1375);

    ASSERT_EQ(report.reconciliations.size(), 2u);
    EXPECT_TRUE(report.reconciliations[0].ok);
    EXPECT_EQ(report.reconciliations[0].actual_sum_us, 1375);
    EXPECT_TRUE(report.reconciliations[1].ok);
    EXPECT_EQ(report.reconciliations[1].actual_sum_us, 290);
    EXPECT_TRUE(report.reconciled());
}

TEST(Profiler, ReconciliationFailsBeyondOnePercent) {
    obs::TraceDump dump = synthetic_open_mode_dump();
    dump.expectations[0].sum_us = 1420;  // ~3% away from the traced 1375
    const obs::ProfileReport report = obs::LatencyProfiler{}.analyze(dump);
    ASSERT_TRUE(report.ok);
    EXPECT_FALSE(report.reconciliations[0].ok);
    EXPECT_FALSE(report.reconciled());
    // Within 1% is fine (integer tolerance: 100 * |diff| <= expected).
    dump.expectations[0].sum_us = 1375 + 13;
    EXPECT_TRUE(obs::LatencyProfiler{}.analyze(dump).reconciliations[0].ok);
}

// -- edge cases ---------------------------------------------------------------

TEST(Profiler, EmptyDumpProducesAnEmptyHealthyReport) {
    const obs::ProfileReport report = obs::LatencyProfiler{}.analyze(obs::TraceDump{});
    EXPECT_TRUE(report.ok);
    EXPECT_TRUE(report.reconciled());
    EXPECT_EQ(report.invocations, 0u);
    EXPECT_EQ(report.unattributed, 0u);
    EXPECT_TRUE(report.groups.empty());
}

TEST(Profiler, EmptyTraceNamesNoDominantPhase) {
    const obs::ProfileReport report = obs::LatencyProfiler{}.analyze(obs::TraceDump{});
    ASSERT_TRUE(report.ok);
    EXPECT_EQ(report.dominant, "");
    EXPECT_NE(report.to_json().find("\"dominant\":\"\""), std::string::npos);
    EXPECT_NE(report.to_text().find("dominant phase: none\n"), std::string::npos);
}

TEST(Profiler, SingleEventDumpIsUnattributedAndFailsItsExpectation) {
    obs::TraceDump dump;
    dump.events.push_back(ev(obs::TraceKind::kCallCompleted, 100, kClient, kClientSpan, 0,
                             kBinding, obs::pack_completion_detail(1, kSeq)));
    dump.expectations.push_back(
        obs::TraceExpectation{std::string(obs::metric::kInvReplyWaitFirst), 1, 100});
    const obs::ProfileReport report = obs::LatencyProfiler{}.analyze(dump);
    ASSERT_TRUE(report.ok);
    EXPECT_EQ(report.invocations, 0u);
    EXPECT_EQ(report.unattributed, 1u);
    EXPECT_FALSE(report.reconciled());  // chain missing => count mismatch
}

TEST(Profiler, RefusesTruncatedDump) {
    obs::TraceDump dump = synthetic_open_mode_dump();
    dump.dropped = 3;
    const obs::ProfileReport report = obs::LatencyProfiler{}.analyze(dump);
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.error.find("truncated"), std::string::npos);
    EXPECT_FALSE(report.reconciled());
    EXPECT_NE(report.to_json().find("\"ok\":false"), std::string::npos);
}

TEST(Oracle, RefusesTruncatedDumpWithASingleViolation) {
    obs::TraceDump dump = synthetic_open_mode_dump();
    dump.dropped = 2;
    const auto violations = obs::ProtocolOracle{}.check(dump);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].kind, obs::Violation::Kind::kTruncatedTrace);
    EXPECT_STREQ(obs::violation_kind_name(violations[0].kind), "truncated_trace");
    // A complete dump delegates to the stream checks.
    dump.dropped = 0;
    EXPECT_TRUE(obs::ProtocolOracle{}.check(dump).empty());
}

TEST(RingTraceSinkOverflow, MirrorsEvictionsIntoTheMetric) {
    obs::MetricsRegistry metrics;
    obs::RingTraceSink ring(2);
    ring.attach_metrics(&metrics);
    for (int i = 0; i < 5; ++i) ring.record(obs::TraceEvent{});
    EXPECT_EQ(ring.dropped(), 3u);
    EXPECT_EQ(metrics.counter(obs::metric::kObsTraceDropped), 3u);
    EXPECT_NE(obs::LatencyProfiler{}.analyze(ring.dump()).error.find("truncated"),
              std::string::npos);
}

TEST(TraceDump, JsonRoundTrips) {
    const obs::TraceDump dump = synthetic_open_mode_dump();
    const std::string json = dump.to_json();
    obs::TraceDump parsed;
    std::string error;
    ASSERT_TRUE(obs::parse_trace_dump(json, parsed, error)) << error;
    EXPECT_EQ(parsed.dropped, dump.dropped);
    EXPECT_EQ(parsed.expectations, dump.expectations);
    ASSERT_EQ(parsed.events.size(), dump.events.size());
    EXPECT_EQ(parsed.to_json(), json);
}

// -- real traced worlds: phase sums must reconcile exactly --------------------

constexpr std::uint32_t kEcho = 1;

class EchoServant : public GroupServant {
public:
    Bytes handle(std::uint32_t, const Bytes& args) override { return args; }
};

/// Two servers + one client on a LAN, traced from the very first join so
/// the dump covers every histogram sample the expectations embed.
struct ProfiledWorld {
    ProfiledWorld(std::uint64_t seed, BindMode bind, OrderMode order)
        : net(scheduler, calibration::make_lan_topology(), seed) {
        net.metrics().set_trace_sink(&sink);
        GroupConfig config;
        config.order = order;
        for (int i = 0; i < 2; ++i) {
            orbs.push_back(std::make_unique<Orb>(net, net.add_node(SiteId(0))));
            nsos.push_back(std::make_unique<NewTopService>(*orbs.back(), directory));
            nsos.back()->serve("svc", config, std::make_shared<EchoServant>());
            run_for(300_ms);
        }
        orbs.push_back(std::make_unique<Orb>(net, net.add_node(SiteId(0))));
        nsos.push_back(std::make_unique<NewTopService>(*orbs.back(), directory));
        proxy = nsos.back()->bind("svc", {.mode = bind});
        run_for(2_s);
    }

    ~ProfiledWorld() { net.metrics().set_trace_sink(nullptr); }

    void run_for(SimDuration d) { scheduler.run_until(scheduler.now() + d); }

    int run_calls(int calls, InvocationMode mode) {
        int completed = 0;
        for (int i = 0; i < calls; ++i) {
            proxy.invoke(kEcho, encode_to_bytes(std::uint64_t(i)), mode,
                         [&](const GroupReply& r) { completed += r.complete ? 1 : 0; });
            run_for(1_s);
        }
        return completed;
    }

    obs::ProfileReport analyze() {
        obs::TraceDump dump;
        dump.events = sink.events();
        const auto expect = [&](std::string_view metric) {
            if (const obs::LatencyHistogram* h = net.metrics().histogram(metric)) {
                dump.expectations.push_back(
                    obs::TraceExpectation{std::string(metric), h->count(), h->sum()});
            }
        };
        expect(obs::metric::kInvReplyWaitOneway);
        expect(obs::metric::kInvReplyWaitFirst);
        expect(obs::metric::kInvReplyWaitMajority);
        expect(obs::metric::kInvReplyWaitAll);
        expect(obs::metric::kGcsDeliveryLatencyUs);
        return obs::LatencyProfiler{}.analyze(dump);
    }

    Scheduler scheduler;
    Network net;
    Directory directory;
    obs::VectorTraceSink sink;
    std::vector<std::unique_ptr<Orb>> orbs;
    std::vector<std::unique_ptr<NewTopService>> nsos;
    GroupProxy proxy;
};

TEST(ProfiledWorlds, OpenModeWaitAllReconcilesExactly) {
    ProfiledWorld world(17, BindMode::kOpen, OrderMode::kTotalAsymmetric);
    ASSERT_EQ(world.run_calls(3, InvocationMode::kWaitAll), 3);
    const obs::ProfileReport report = world.analyze();
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.invocations, 3u);
    EXPECT_EQ(report.unattributed, 0u);
    EXPECT_TRUE(report.reconciled()) << report.to_text();
}

TEST(ProfiledWorlds, ClosedModeReconcilesExactly) {
    ProfiledWorld world(23, BindMode::kClosed, OrderMode::kTotalAsymmetric);
    ASSERT_EQ(world.run_calls(3, InvocationMode::kWaitAll), 3);
    const obs::ProfileReport report = world.analyze();
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.invocations, 3u);
    EXPECT_EQ(report.unattributed, 0u);
    EXPECT_TRUE(report.reconciled()) << report.to_text();
}

TEST(ProfiledWorlds, SymmetricOrderReconcilesExactly) {
    ProfiledWorld world(29, BindMode::kOpen, OrderMode::kTotalSymmetric);
    ASSERT_EQ(world.run_calls(2, InvocationMode::kWaitMajority), 2);
    const obs::ProfileReport report = world.analyze();
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.invocations, 2u);
    EXPECT_EQ(report.unattributed, 0u);
    EXPECT_TRUE(report.reconciled()) << report.to_text();
}

TEST(ProfiledWorlds, ReportJsonIsAPureFunctionOfTheSeed) {
    const auto run = [] {
        ProfiledWorld world(31, BindMode::kOpen, OrderMode::kTotalAsymmetric);
        world.run_calls(2, InvocationMode::kWaitFirst);
        return world.analyze().to_json();
    };
    EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace newtop
