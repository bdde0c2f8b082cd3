// LAN saturation — sustained data-plane throughput with and without the
// batched ordering window (send coalescing + multi-assignment ORDER
// records + arena CDR).
//
// Unlike the paper's closed-loop request/reply experiments, this bench
// flood-feeds senders faster than the unbatched pipeline can drain, so the
// per-message protocol overhead (one stream slot + one ORDER assignment +
// stability traffic per payload) becomes the bottleneck.  The batched mode
// coalesces queued payloads into shared stream slots under credit-based
// flow control; the figure of merit is sustained delivered
// invocations/sec, and the acceptance bar for this artifact is a >=5x
// speedup of batched over unbatched.
//
// Emits BENCH_saturation.json (override the path with NEWTOP_BENCH_OUT) in
// the shared artifact schema (harness.hpp `Artifact`): rows "unbatched",
// "batched" (throughput, speedup, allocations per invocation) and
// "profiled" (the traced repeat), with checks that the traced run
// reconciles and that batched steady state stays within its net-allocation
// budget.  Also prints the standard deterministic `# metrics` line.
#include "harness.hpp"

#include "gcs/endpoint.hpp"
#include "obs/profiler.hpp"

namespace {

using namespace newtop;
using namespace newtop::bench;

/// Permitted net heap growth per delivered invocation in the measured
/// window (see the steady-state check in BM_Saturation_Lan).
constexpr double kNetAllocBudgetPerInv = 0.5;

struct SaturationOptions {
    std::size_t order_window{16};  // 0 = unbatched (pre-window behaviour)
    std::size_t order_max_batch{64};
    int members{3};
    int senders{2};
    int burst{16};               // payloads submitted per feed tick
    SimDuration feed_interval{2_ms};
    SimDuration warmup{1_s};
    SimDuration measured{5_s};
    std::size_t payload_bytes{32};
    std::uint64_t seed{1};
    /// Trace the run, sample the credit/holdback gauges and reconcile the
    /// trace-derived ship->delivery sums against gcs.delivery_latency_us.
    bool profile{false};
};

struct SaturationResult {
    double invocations_per_sec{0.0};
    std::uint64_t delivered{0};
    std::uint64_t wire_messages{0};
    /// Heap traffic inside the measured window, per delivered invocation
    /// (bench/alloc_hook.cpp counters).  Churn counts every operator new;
    /// net is allocations never freed — the steady-state protocol recycles
    /// its buffers, so net must stay ~0.
    double allocs_per_inv{0.0};
    double net_allocs_per_inv{0.0};
    std::string metrics_json;
    obs::ProfileReport profile;  // options.profile only
};

/// One flood run: `senders` members feed open-loop bursts into an
/// asymmetric-order group; deliveries are counted at the sequencer.
SaturationResult run_saturation(const SaturationOptions& options) {
    Scheduler scheduler;
    Network network(scheduler, calibration::make_lan_topology(), options.seed);
    Directory directory;

    std::unique_ptr<obs::RingTraceSink> sink;
    if (options.profile) {
        sink = std::make_unique<obs::RingTraceSink>(std::size_t{1} << 19);
        sink->attach_metrics(&network.metrics());
        network.metrics().set_trace_sink(sink.get());
        network.enable_gauge_sampling(10_ms, 2_s);
    }

    std::vector<std::unique_ptr<Orb>> orbs;
    std::vector<std::unique_ptr<GroupCommEndpoint>> endpoints;
    for (int i = 0; i < options.members; ++i) {
        orbs.push_back(std::make_unique<Orb>(network, network.add_node(SiteId(0))));
        endpoints.push_back(std::make_unique<GroupCommEndpoint>(*orbs.back(), directory));
    }

    GroupConfig config;
    config.order = OrderMode::kTotalAsymmetric;
    config.order_window = options.order_window;
    config.order_max_batch = options.order_max_batch;
    const GroupId group = endpoints[0]->create_group("saturation", config);
    for (int i = 1; i < options.members; ++i) endpoints[i]->join_group("saturation");
    scheduler.run_until(scheduler.now() + 500_ms);

    std::uint64_t observed = 0;
    endpoints[0]->set_deliver_handler(
        [&observed](const GroupCommEndpoint::Delivery&) { ++observed; });

    // Open-loop feeders: the last `senders` members (never the sequencer)
    // each submit a burst every feed tick until the end of the run.
    const SimTime stop_feeding =
        scheduler.now() + options.warmup + options.measured;
    const Bytes payload(options.payload_bytes, 0xb7);
    for (int s = 0; s < options.senders; ++s) {
        GroupCommEndpoint* ep = endpoints[options.members - 1 - s].get();
        auto feed = std::make_shared<std::function<void()>>();
        *feed = [&scheduler, ep, group, &payload, &options, stop_feeding, feed] {
            for (int k = 0; k < options.burst; ++k) ep->multicast(group, payload);
            if (scheduler.now() + options.feed_interval < stop_feeding) {
                scheduler.schedule_after(options.feed_interval, [feed] { (*feed)(); });
            }
        };
        scheduler.schedule_after(SimDuration{s + 1}, [feed] { (*feed)(); });
    }

    scheduler.run_until(scheduler.now() + options.warmup);
    const std::uint64_t delivered_before = observed;
    const std::uint64_t wire_before = network.stats().messages_sent;
    const alloc::Snapshot heap_before = alloc::snapshot();
    scheduler.run_until(scheduler.now() + options.measured);
    const alloc::Snapshot heap_after = alloc::snapshot();

    SaturationResult result;
    result.delivered = observed - delivered_before;
    result.wire_messages = network.stats().messages_sent - wire_before;
    if (result.delivered > 0) {
        const double delivered = static_cast<double>(result.delivered);
        result.allocs_per_inv =
            static_cast<double>(alloc::allocs_between(heap_before, heap_after)) / delivered;
        result.net_allocs_per_inv =
            static_cast<double>(alloc::net_between(heap_before, heap_after)) / delivered;
    }
    result.invocations_per_sec =
        static_cast<double>(result.delivered) / to_seconds(options.measured);
    result.metrics_json = network.metrics().to_json();

    if (sink != nullptr) {
        network.metrics().set_trace_sink(nullptr);
        obs::TraceDump dump = sink->dump();
        if (const obs::LatencyHistogram* h =
                network.metrics().histogram(obs::metric::kGcsDeliveryLatencyUs)) {
            dump.expectations.push_back(obs::TraceExpectation{
                std::string(obs::metric::kGcsDeliveryLatencyUs), h->count(), h->sum()});
        }
        result.profile = obs::LatencyProfiler{}.analyze(dump);
        write_trace_dump(dump, "saturation");
    }
    return result;
}

/// One flood run as an artifact row: throughput and heap traffic per
/// delivered invocation, with the batching knobs as description.
ArtifactRow& add_row(Artifact& artifact, const char* name, const SaturationOptions& options,
                     const SaturationResult& result) {
    return artifact.row(name)
        .higher("invocations_per_sec", result.invocations_per_sec)
        .lower("allocs_per_inv", result.allocs_per_inv)
        .lower("net_allocs_per_inv", result.net_allocs_per_inv)
        .info("order_window", options.order_window)
        .info("order_max_batch", options.order_max_batch)
        .info("delivered", result.delivered)
        .info("wire_messages", result.wire_messages);
}

void BM_Saturation_Lan(benchmark::State& state) {
    for (auto _ : state) {
        SaturationOptions unbatched_options;
        unbatched_options.order_window = 0;  // pre-window behaviour
        const SaturationResult unbatched = run_saturation(unbatched_options);

        SaturationOptions batched_options;  // defaults: window 16, batch 64
        const SaturationResult batched = run_saturation(batched_options);

        // Shorter traced run: every ship/arrival/order/delivery event is
        // captured and the trace-derived ship->delivery sums must reconcile
        // with the gcs.delivery_latency_us histogram (the flood runs above
        // stay untraced so their throughput is undisturbed).
        SaturationOptions profiled_options;
        profiled_options.profile = true;
        profiled_options.burst = 8;
        profiled_options.warmup = 200_ms;
        profiled_options.measured = 400_ms;
        const SaturationResult profiled = run_saturation(profiled_options);

        const double speedup = unbatched.invocations_per_sec > 0
                                   ? batched.invocations_per_sec /
                                         unbatched.invocations_per_sec
                                   : 0.0;
        state.counters["unbatched_inv_per_s"] = unbatched.invocations_per_sec;
        state.counters["batched_inv_per_s"] = batched.invocations_per_sec;
        state.counters["speedup"] = speedup;
        state.counters["reconciled"] = profiled.profile.reconciled() ? 1.0 : 0.0;
        state.counters["allocs_per_inv"] = batched.allocs_per_inv;
        state.counters["net_allocs_per_inv"] = batched.net_allocs_per_inv;
        Artifact artifact("saturation", unbatched_options.seed);
        add_row(artifact, "unbatched", unbatched_options, unbatched);
        add_row(artifact, "batched", batched_options, batched).higher("speedup", speedup);
        artifact.row("profiled")
            .info("delivered", profiled.delivered)
            .info("sequencer_turnaround_count", profiled.profile.sequencer_turnaround_count)
            .info("sequencer_turnaround_sum_us", profiled.profile.sequencer_turnaround_sum_us);
        artifact.check("profiled.reconciled", profiled.profile.reconciled(),
                       profiled.profile.to_text());
        // Steady-state allocation discipline: after warm-up the data plane
        // runs on recycled arena buffers and pre-sized containers, so net
        // heap growth per delivered invocation must be ~0.  A small budget
        // absorbs map-node churn from the holdback/assignment indexes.  The
        // unbatched mode is backlogged (its queue grows), so it makes no claim.
        artifact.check("batched.net_allocs_within_budget",
                       batched.net_allocs_per_inv <= kNetAllocBudgetPerInv,
                       "net " + std::to_string(batched.net_allocs_per_inv) +
                           " allocs/invocation (budget " +
                           std::to_string(kNetAllocBudgetPerInv) + ")\n");
        artifact.write();
        emit_metrics(batched.metrics_json);
    }
}
BENCHMARK(BM_Saturation_Lan)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
