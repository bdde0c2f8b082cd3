#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

#include "alloc_hook.hpp"
#include "obs/names.hpp"

namespace perfbench {

namespace m = newtop::obs::metric;

double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double exact_quantile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

LatencySummary summarize_us(std::vector<SimDuration> latencies_us) {
    std::vector<double> ms;
    ms.reserve(latencies_us.size());
    for (const SimDuration v : latencies_us) ms.push_back(static_cast<double>(v) / 1000.0);
    std::sort(ms.begin(), ms.end());
    return LatencySummary{exact_quantile(ms, 0.50), exact_quantile(ms, 0.99), ms.size()};
}

// -- Stepper --------------------------------------------------------------------

void Stepper::run_until(SimTime deadline) {
    if (deadline < scheduler_->now()) return;
    bool reached = false;
    scheduler_->schedule_at(deadline, [&reached] { reached = true; });
    std::uint64_t steps = 0;
    while (!reached && scheduler_->step()) {
        ++steps;
        if (scheduler_->now() >= next_mark_) {
            cpu_marks_.push_back(cpu_seconds());
            next_mark_ = (scheduler_->now() / kMarkPeriod + 1) * kMarkPeriod;
        }
    }
    events_ += steps - 1;  // the sentinel is not the program's event
}

void drain_calls(World& world, const std::vector<Call>& calls, SimTime stop) {
    while (world.scheduler.now() < stop &&
           !std::all_of(calls.begin(), calls.end(), [](const Call& c) { return c.done; })) {
        world.stepper.run_for(100_ms);
    }
}

// -- TraceRecorder ----------------------------------------------------------------

namespace {

obs::PhaseStats phase_stats(std::vector<std::int64_t> samples) {
    obs::PhaseStats stats;
    if (samples.empty()) return stats;
    std::sort(samples.begin(), samples.end());
    const std::vector<double> sorted(samples.begin(), samples.end());
    stats.count = samples.size();
    for (const std::int64_t v : samples) stats.sum_us += v;
    stats.p50_us = static_cast<std::int64_t>(exact_quantile(sorted, 0.50));
    stats.p90_us = static_cast<std::int64_t>(exact_quantile(sorted, 0.90));
    stats.p99_us = static_cast<std::int64_t>(exact_quantile(sorted, 0.99));
    stats.max_us = samples.back();
    return stats;
}

/// Per-payload phases of bare multicasts, keyed by the payload's span:
/// credit_wait = submitted -> shipped at the sender, then per member
/// wire = shipped -> arrived and order_wait = arrived -> delivered.
std::map<std::string, obs::PhaseStats> payload_phases(const std::vector<obs::TraceEvent>& events) {
    std::map<std::uint64_t, SimTime> sent;
    std::map<std::uint64_t, SimTime> shipped;
    std::map<std::pair<std::uint64_t, std::uint64_t>, SimTime> arrived;
    std::vector<std::int64_t> credit_wait;
    std::vector<std::int64_t> wire;
    std::vector<std::int64_t> order_wait;
    for (const obs::TraceEvent& e : events) {
        switch (e.kind) {
            case obs::TraceKind::kMulticastSent: sent.emplace(e.span, e.at); break;
            case obs::TraceKind::kPayloadShipped:
                if (shipped.emplace(e.span, e.at).second) {
                    if (const auto it = sent.find(e.span); it != sent.end()) {
                        credit_wait.push_back(e.at - it->second);
                    }
                }
                break;
            case obs::TraceKind::kDataArrived:
                if (arrived.emplace(std::pair{e.span, e.actor}, e.at).second) {
                    if (const auto it = shipped.find(e.span); it != shipped.end()) {
                        wire.push_back(e.at - it->second);
                    }
                }
                break;
            case obs::TraceKind::kPayloadDelivered:
                if (const auto it = arrived.find({e.span, e.actor}); it != arrived.end()) {
                    order_wait.push_back(e.at - it->second);
                }
                break;
            default: break;
        }
    }
    return {{std::string(obs::phase::kCreditWait), phase_stats(std::move(credit_wait))},
            {std::string(obs::phase::kWire), phase_stats(std::move(wire))},
            {std::string(obs::phase::kOrderWait), phase_stats(std::move(order_wait))}};
}

}  // namespace

TraceRecorder::TraceRecorder(World& world)
    : world_(&world), sink_(std::make_unique<obs::RingTraceSink>(kCapacity)) {
    sink_->attach_metrics(&world.network.metrics());
    world.network.metrics().set_trace_sink(sink_.get());
}

TraceRecorder::~TraceRecorder() {
    if (world_->network.metrics().trace_sink() == sink_.get()) {
        world_->network.metrics().set_trace_sink(nullptr);
    }
}

TraceRecorder::Result TraceRecorder::finish() {
    obs::MetricsRegistry& metrics = world_->network.metrics();
    metrics.set_trace_sink(nullptr);
    Result result;
    obs::TraceDump dump = sink_->dump();
    result.events = dump.events.size();
    result.dropped = dump.dropped;
    for (const std::string_view name :
         {m::kInvReplyWaitOneway, m::kInvReplyWaitFirst, m::kInvReplyWaitMajority,
          m::kInvReplyWaitAll, m::kInvReplyWaitOther, m::kGcsDeliveryLatencyUs}) {
        if (const obs::LatencyHistogram* h = metrics.histogram(name)) {
            dump.expectations.push_back(
                obs::TraceExpectation{std::string(name), h->count(), h->sum()});
        }
    }
    result.profile = obs::LatencyProfiler{}.analyze(dump);
    if (result.profile.invocations == 0) result.payload_phases = payload_phases(dump.events);
    const double start = cpu_seconds();
    result.violations = obs::ProtocolOracle{}.check(dump);
    result.oracle_check_s = cpu_seconds() - start;
    return result;
}

// -- Window -----------------------------------------------------------------------

namespace {

// Counters whose window deltas feed the per-op layer ratios.
constexpr std::string_view kWindowCounters[] = {
    m::kCpuBusyUs,     m::kNetMessagesSent, m::kNetBytesSent,  m::kNetWanMessages,
    m::kOrbInvocations, m::kOrbOneways,     m::kGcsMulticasts, m::kGcsDataSent,
    m::kGcsOrderSent,  m::kGcsNullsSent,    m::kInvCallsRetried};

// Histograms whose window sum deltas feed ratios (keyed "<name>.sum").
constexpr std::string_view kWindowHistogramSums[] = {m::kGcsOrderBatchRefs};

// Whole-run event counts, reported as they are.
constexpr std::string_view kRunCounters[] = {
    m::kGcsViewsInstalled, m::kGcsFlushesSent,  m::kGcsRetransmits, m::kGcsSuspicionTrue,
    m::kGcsSuspicionFalse, m::kInvRebinds,      m::kInvBackoffs,    m::kInvShed,
    m::kInvBindShed,       m::kDirectoryEvictions, m::kReplicationStateRefounds};

std::uint64_t histogram_sum(const obs::MetricsRegistry& metrics, std::string_view name) {
    const obs::LatencyHistogram* h = metrics.histogram(name);
    return h == nullptr ? 0 : static_cast<std::uint64_t>(h->sum());
}

double histogram_mean(const obs::MetricsRegistry& metrics, std::string_view name) {
    const obs::LatencyHistogram* h = metrics.histogram(name);
    if (h == nullptr || h->count() == 0) return 0.0;
    return static_cast<double>(h->sum()) / static_cast<double>(h->count());
}

std::uint64_t histogram_count(const obs::MetricsRegistry& metrics, std::string_view name) {
    const obs::LatencyHistogram* h = metrics.histogram(name);
    return h == nullptr ? 0 : h->count();
}

}  // namespace

Window::Window(World& world)
    : world_(&world),
      cpu_start_(cpu_seconds()),
      events_start_(world.stepper.events()),
      allocs_start_(newtop::bench::alloc::snapshot().allocs),
      frees_start_(newtop::bench::alloc::snapshot().frees) {
    const obs::MetricsRegistry& metrics = world.network.metrics();
    for (const std::string_view name : kWindowCounters) {
        counters_start_[std::string(name)] = metrics.counter(name);
    }
    for (const std::string_view name : kWindowHistogramSums) {
        counters_start_[std::string(name) + ".sum"] = histogram_sum(metrics, name);
    }
    marks_start_ = world.stepper.cpu_marks().size();
    // Re-read the clock last so the snapshot above is not billed.
    cpu_start_ = cpu_seconds();
}

void Window::stop() {
    const double end = cpu_seconds();
    cpu_s_ = end - cpu_start_;
    const std::vector<double>& marks = world_->stepper.cpu_marks();
    double previous = cpu_start_;
    for (std::size_t i = marks_start_; i < marks.size(); ++i) {
        segments_.push_back(marks[i] - previous);
        previous = marks[i];
    }
    segments_.push_back(end - previous);
    events_ = world_->stepper.events() - events_start_;
    const auto heap = newtop::bench::alloc::snapshot();
    allocs_ = heap.allocs - allocs_start_;
    net_allocs_ = static_cast<std::int64_t>(heap.allocs - allocs_start_) -
                  static_cast<std::int64_t>(heap.frees - frees_start_);
}

double Window::delta(std::string_view name) const {
    const obs::MetricsRegistry& metrics = world_->network.metrics();
    const auto it = counters_start_.find(name);
    const std::uint64_t start = it == counters_start_.end() ? 0 : it->second;
    if (name.ends_with(".sum")) {
        const std::string_view base = name.substr(0, name.size() - 4);
        return static_cast<double>(histogram_sum(metrics, base) - start);
    }
    return static_cast<double>(metrics.counter(name) - start);
}

void Window::close(RunOutcome& out) {
    out.measured_cpu_s = cpu_s_;
    out.segment_cpu_s = segments_;
    out.events = events_;

    const obs::MetricsRegistry& metrics = world_->network.metrics();
    const double ops = static_cast<double>(std::max<std::uint64_t>(out.completed, 1));
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    auto& layer = out.layer;
    layer["sim.events_per_op"] = {static_cast<double>(events_) / ops, "count", out.completed};
    layer["cpu.busy_us_per_op"] = {delta(m::kCpuBusyUs) / ops, "us", out.completed};
    layer["net.msgs_per_op"] = {delta(m::kNetMessagesSent) / ops, "count", out.completed};
    layer["net.bytes_per_op"] = {delta(m::kNetBytesSent) / ops, "B", out.completed};
    layer["net.wan_msgs_per_op"] = {delta(m::kNetWanMessages) / ops, "count", out.completed};
    layer["orb.calls_per_op"] = {(delta(m::kOrbInvocations) + delta(m::kOrbOneways)) / ops,
                                 "count", out.completed};
    layer["alloc.allocs_per_op"] = {static_cast<double>(allocs_) / ops, "count", out.completed};
    layer["alloc.net_allocs_per_op"] = {static_cast<double>(net_allocs_) / ops, "count",
                                        out.completed};
    const double data_sent = delta(m::kGcsDataSent);
    const double order_sent = delta(m::kGcsOrderSent);
    layer["gcs.payloads_per_data"] = {ratio(delta(m::kGcsMulticasts), data_sent), "count",
                                      static_cast<std::uint64_t>(data_sent)};
    layer["gcs.refs_per_order"] = {
        ratio(delta(std::string(m::kGcsOrderBatchRefs) + ".sum"), order_sent), "count",
        static_cast<std::uint64_t>(order_sent)};
    layer["gcs.nulls_per_op"] = {delta(m::kGcsNullsSent) / ops, "count", out.completed};
    layer["invocation.retries_per_op"] = {delta(m::kInvCallsRetried) / ops, "count",
                                          out.completed};
    for (const std::string_view name : kRunCounters) {
        layer[std::string(name)] = {static_cast<double>(metrics.counter(name)), "count", 1};
    }
    layer["gcs.detection_latency_mean_us"] = {
        histogram_mean(metrics, m::kGcsDetectionLatencyUs), "us",
        histogram_count(metrics, m::kGcsDetectionLatencyUs)};
    layer["gcs.reconfig_stall_mean_us"] = {histogram_mean(metrics, m::kGcsReconfigStallUs), "us",
                                           histogram_count(metrics, m::kGcsReconfigStallUs)};
    layer["recovery.mttr_mean_ms"] = {histogram_mean(metrics, m::kRecoveryMttr) / 1000.0, "ms",
                                      histogram_count(metrics, m::kRecoveryMttr)};
}

}  // namespace perfbench
