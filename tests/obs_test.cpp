// Observability layer: histogram bucketing, the metrics registry, trace
// sinks, end-to-end counter values for a small deterministic world, and
// bit-reproducibility of the metrics JSON across identical runs.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/calibration.hpp"
#include "newtop/newtop_service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

// -- LatencyHistogram ---------------------------------------------------------

TEST(LatencyHistogram, BucketsAreLogScale) {
    obs::LatencyHistogram h;
    h.record(0);   // bucket 0
    h.record(1);   // bucket 1: [1, 2)
    h.record(2);   // bucket 2: [2, 4)
    h.record(3);   // bucket 2
    h.record(4);   // bucket 3: [4, 8)
    h.record(1023);  // bucket 10: [512, 1024)
    h.record(1024);  // bucket 11: [1024, 2048)
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 2u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.buckets()[10], 1u);
    EXPECT_EQ(h.buckets()[11], 1u);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.sum(), 0 + 1 + 2 + 3 + 4 + 1023 + 1024);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 1024);
}

TEST(LatencyHistogram, NegativeValuesClampToZero) {
    obs::LatencyHistogram h;
    h.record(-5);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.sum(), 0);
}

TEST(LatencyHistogram, QuantilesComeFromBucketFloorsClampedToTheRange) {
    obs::LatencyHistogram h;
    EXPECT_EQ(h.quantile(0.5), 0);  // empty
    for (int i = 0; i < 50; ++i) h.record(0);
    for (int i = 0; i < 50; ++i) h.record(1000);  // bucket [512, 1024)
    EXPECT_EQ(h.quantile(0.5), 0);
    EXPECT_EQ(h.quantile(0.9), 512);
    EXPECT_EQ(h.quantile(0.99), 512);
}

TEST(LatencyHistogram, SingleSampleQuantilesAreExact) {
    // One sample lands in bucket [4, 8); the clamp to [min, max] recovers
    // the exact value.
    obs::LatencyHistogram h;
    h.record(7);
    EXPECT_EQ(h.quantile(0.5), 7);
    EXPECT_EQ(h.quantile(0.99), 7);
}

TEST(LatencyHistogram, JsonCarriesTheQuantiles) {
    obs::LatencyHistogram h;
    h.record(100);
    std::string out;
    h.append_json(out);
    EXPECT_NE(out.find("\"p50\":"), std::string::npos);
    EXPECT_NE(out.find("\"p90\":"), std::string::npos);
    EXPECT_NE(out.find("\"p99\":"), std::string::npos);
}

TEST(LatencyHistogram, BucketFloors) {
    EXPECT_EQ(obs::LatencyHistogram::bucket_floor(0), 0);
    EXPECT_EQ(obs::LatencyHistogram::bucket_floor(1), 1);
    EXPECT_EQ(obs::LatencyHistogram::bucket_floor(2), 2);
    EXPECT_EQ(obs::LatencyHistogram::bucket_floor(3), 4);
    EXPECT_EQ(obs::LatencyHistogram::bucket_floor(11), 1024);
}

// -- MetricsRegistry ----------------------------------------------------------

TEST(MetricsRegistry, CountersAccumulate) {
    obs::MetricsRegistry m;
    EXPECT_EQ(m.counter("x"), 0u);
    m.add("x");
    m.add("x", 4);
    EXPECT_EQ(m.counter("x"), 5u);
}

TEST(MetricsRegistry, HistogramsCreatedOnFirstObserve) {
    obs::MetricsRegistry m;
    EXPECT_EQ(m.histogram("lat"), nullptr);
    m.observe("lat", 100);
    ASSERT_NE(m.histogram("lat"), nullptr);
    EXPECT_EQ(m.histogram("lat")->count(), 1u);
}

TEST(MetricsRegistry, JsonIsAPureFunctionOfTheData) {
    const auto build = [] {
        obs::MetricsRegistry m;
        m.add("b", 2);
        m.add("a");
        m.observe("lat", 7);
        m.observe("lat", 900);
        return m.to_json();
    };
    const std::string a = build();
    const std::string b = build();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"counters\""), std::string::npos);
    EXPECT_NE(a.find("\"histograms\""), std::string::npos);
    EXPECT_NE(a.find("\"a\":1"), std::string::npos);
    EXPECT_NE(a.find("\"b\":2"), std::string::npos);
}

// -- Counter / Histogram handles ----------------------------------------------

TEST(MetricHandles, NeverBumpedHandleLeavesJsonUnchanged) {
    obs::MetricsRegistry m;
    m.add("a", 3);
    m.observe("lat", 12);
    const std::string before = m.to_json();
    const obs::Counter counter(m, "unbumped.counter");
    const obs::Histogram histogram(m, "unbumped.histogram");
    EXPECT_EQ(m.to_json(), before);
    EXPECT_EQ(m.counter("unbumped.counter"), 0u);
    EXPECT_EQ(m.histogram("unbumped.histogram"), nullptr);
}

TEST(MetricHandles, HandleAndNameBumpTheSameCounter) {
    obs::MetricsRegistry m;
    obs::Counter handle(m, "x");
    m.add("x", 2);
    handle.add();
    handle.add(5);
    m.add("x");
    EXPECT_EQ(m.counter("x"), 9u);

    // A zero bump creates the counter, exactly as add(name, 0) does.
    obs::MetricsRegistry by_handle;
    obs::MetricsRegistry by_name;
    obs::Counter zero(by_handle, "z");
    zero.add(0);
    by_name.add("z", 0);
    EXPECT_EQ(by_handle.to_json(), by_name.to_json());
}

TEST(MetricHandles, HistogramHandleMatchesObserveByName) {
    const std::vector<SimDuration> values = {0, 1, 7, 7, 900, -3, 1 << 20};
    obs::MetricsRegistry by_handle;
    obs::MetricsRegistry by_name;
    obs::Histogram handle(by_handle, "lat");
    for (const SimDuration v : values) {
        handle.observe(v);
        by_name.observe("lat", v);
    }
    EXPECT_EQ(by_handle.to_json(), by_name.to_json());
}

TEST(MetricsRegistry, TraceIsANoOpWithoutASink) {
    obs::MetricsRegistry m;
    m.trace(obs::TraceKind::kMulticastSent, 10, 1);  // must not crash
    obs::VectorTraceSink sink;
    m.set_trace_sink(&sink);
    m.trace(obs::TraceKind::kMulticastSent, 10, 1, 2, 3);
    m.trace(obs::TraceKind::kViewInstalled, 20, 1);
    ASSERT_EQ(sink.events().size(), 2u);
    EXPECT_EQ(sink.count(obs::TraceKind::kMulticastSent), 1u);
    EXPECT_EQ(sink.events()[0].at, 10);
    EXPECT_EQ(sink.events()[0].subject, 2u);
    EXPECT_EQ(sink.events()[0].detail, 3u);
    m.set_trace_sink(nullptr);
    m.trace(obs::TraceKind::kFlushSent, 30, 1);
    EXPECT_EQ(sink.events().size(), 2u);
}

// -- trace kinds & sinks ------------------------------------------------------

TEST(TraceKinds, EveryKindHasAUniqueName) {
    std::set<std::string> names;
    for (std::size_t i = 0; i < obs::kTraceKindCount; ++i) {
        const char* name = obs::trace_kind_name(static_cast<obs::TraceKind>(i));
        ASSERT_NE(name, nullptr) << "kind " << i;
        EXPECT_STRNE(name, "?") << "kind " << i;
        EXPECT_TRUE(names.insert(name).second) << "duplicate name for kind " << i;
    }
    // One past the end is the sentinel, proving kTraceKindCount is in sync.
    EXPECT_STREQ(obs::trace_kind_name(static_cast<obs::TraceKind>(obs::kTraceKindCount)), "?");
}

TEST(RingTraceSink, KeepsTheMostRecentEvents) {
    obs::RingTraceSink ring(4);
    EXPECT_EQ(ring.capacity(), 4u);
    for (int i = 0; i < 6; ++i) {
        obs::TraceEvent e;
        e.at = i;
        ring.record(e);
    }
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 2u);
    const auto events = ring.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].at, static_cast<SimTime>(i + 2));  // oldest first
    }
    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(SpanIds, AreDeterministicAndNeverZero) {
    const std::uint64_t t = obs::invocation_trace_id(3, 9, false);
    EXPECT_NE(t, 0u);
    EXPECT_EQ(t, obs::invocation_trace_id(3, 9, false));
    EXPECT_NE(t, obs::invocation_trace_id(3, 9, true));   // closed-mode origin
    EXPECT_NE(t, obs::invocation_trace_id(3, 10, false));  // next call
    const std::uint64_t s = obs::span_id(t, 5, obs::SpanRole::kServer);
    EXPECT_NE(s, 0u);
    EXPECT_NE(s, obs::span_id(t, 5, obs::SpanRole::kManager));
    EXPECT_NE(s, obs::span_id(t, 6, obs::SpanRole::kServer));
}

// -- end-to-end metrics -------------------------------------------------------

constexpr std::uint32_t kEcho = 1;

class EchoServant : public GroupServant {
public:
    Bytes handle(std::uint32_t, const Bytes& args) override { return args; }
};

/// Two servers + one open-mode client on a LAN; `calls` kWaitAll requests.
struct MetricsWorld {
    explicit MetricsWorld(std::uint64_t seed)
        : net(scheduler, calibration::make_lan_topology(), seed) {
        for (int i = 0; i < 2; ++i) {
            orbs.push_back(std::make_unique<Orb>(net, net.add_node(SiteId(0))));
            nsos.push_back(std::make_unique<NewTopService>(*orbs.back(), directory));
            nsos.back()->serve("svc", GroupConfig{}, std::make_shared<EchoServant>());
            run_for(300_ms);
        }
        orbs.push_back(std::make_unique<Orb>(net, net.add_node(SiteId(0))));
        nsos.push_back(std::make_unique<NewTopService>(*orbs.back(), directory));
        proxy = nsos.back()->bind("svc", {.mode = BindMode::kOpen});
        run_for(2_s);
    }

    void run_for(SimDuration d) { scheduler.run_until(scheduler.now() + d); }

    int run_calls(int calls) {
        int completed = 0;
        for (int i = 0; i < calls; ++i) {
            proxy.invoke(kEcho, encode_to_bytes(std::uint64_t(i)), InvocationMode::kWaitAll,
                         [&](const GroupReply& r) { completed += r.complete ? 1 : 0; });
            run_for(1_s);
        }
        return completed;
    }

    Scheduler scheduler;
    Network net;
    Directory directory;
    std::vector<std::unique_ptr<Orb>> orbs;
    std::vector<std::unique_ptr<NewTopService>> nsos;
    GroupProxy proxy;
};

TEST(WorldMetrics, CountersReflectASmallScenario) {
    MetricsWorld world(17);
    ASSERT_EQ(world.run_calls(3), 3);
    const obs::MetricsRegistry& m = world.nsos.back()->metrics();

    // Invocation layer: exactly the client's three calls.
    EXPECT_EQ(m.counter("invocation.calls_sent"), 3u);
    EXPECT_EQ(m.counter("invocation.calls_completed"), 3u);
    EXPECT_EQ(m.counter("invocation.calls_failed"), 0u);
    EXPECT_EQ(m.counter("invocation.calls_retried"), 0u);
    // The manager gathers one reply per server per call.
    EXPECT_EQ(m.counter("invocation.rm_replies_collected"), 6u);

    // The lower layers saw traffic.
    EXPECT_GT(m.counter("gcs.multicasts"), 0u);
    EXPECT_GT(m.counter("gcs.delivered"), 0u);
    EXPECT_GT(m.counter("gcs.views_installed"), 0u);
    EXPECT_GT(m.counter("net.messages_sent"), 0u);
    EXPECT_GT(m.counter("net.messages_delivered"), 0u);
    EXPECT_GT(m.counter("net.bytes_sent"), 0u);
    EXPECT_GT(m.counter("cpu.tasks"), 0u);
    EXPECT_GT(m.counter("orb.invocations"), 0u);

    // Per-mode reply-wait histogram: one sample per completed call.
    const obs::LatencyHistogram* wait = m.histogram("invocation.reply_wait_us.all");
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(wait->count(), 3u);
    EXPECT_GT(wait->sum(), 0);
    ASSERT_NE(m.histogram("gcs.delivery_latency_us"), nullptr);
    ASSERT_NE(m.histogram("net.delivery_latency_us"), nullptr);
}

TEST(WorldMetrics, TraceSinkSeesTheRequestLifecycle) {
    MetricsWorld world(17);
    obs::VectorTraceSink sink;
    world.net.metrics().set_trace_sink(&sink);
    ASSERT_EQ(world.run_calls(2), 2);
    world.net.metrics().set_trace_sink(nullptr);

    EXPECT_EQ(sink.count(obs::TraceKind::kRequestSent), 2u);
    EXPECT_EQ(sink.count(obs::TraceKind::kCallCompleted), 2u);
    EXPECT_GT(sink.count(obs::TraceKind::kMulticastSent), 0u);
    EXPECT_GT(sink.count(obs::TraceKind::kDataOnWire), 0u);
    // Timestamps never decrease (single scheduler, in-order recording).
    for (std::size_t i = 1; i < sink.events().size(); ++i) {
        EXPECT_LE(sink.events()[i - 1].at, sink.events()[i].at);
    }
}

TEST(WorldMetrics, IdenticalSeedsProduceByteIdenticalJson) {
    const auto run_scenario = [](std::uint64_t seed) {
        MetricsWorld world(seed);
        world.run_calls(3);
        return world.net.metrics().to_json();
    };
    const std::string a = run_scenario(23);
    const std::string b = run_scenario(23);
    EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace newtop
