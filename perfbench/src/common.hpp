// Shared plumbing of the NewTop benchmark: host clocks, exact percentiles,
// the event-counting scheduler loop, the traced-run recorder and the
// result record every workload fills in.
//
// Two clocks are in play.  Sim time (SimTime, microseconds) is what the
// protocol's users see and is deterministic per seed.  Host time is how
// fast the simulator runs: process CPU time for measured windows, wall time
// for set-up.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "newtop/newtop_service.hpp"
#include "obs/oracle.hpp"
#include "obs/profiler.hpp"

namespace perfbench {

using namespace newtop;
using namespace newtop::sim_literals;

/// Process CPU time in seconds (all threads; the simulator has one).
double cpu_seconds();

/// Monotonic wall time in seconds.
double wall_seconds();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();
/// Nearest-rank percentile of `sorted` (ascending): the ceil(q * n)-th
/// smallest sample.  0 when empty.
double exact_quantile(const std::vector<double>& sorted, double q);

/// Median of `values` (mean of the two middle values for even counts).
double median(std::vector<double> values);

/// One reported number with its unit and the number of samples behind it
/// (1 for a count or a ratio of totals).
struct Metric {
    double value{0.0};
    std::string unit;
    std::uint64_t samples{1};
};

/// Latency percentiles over per-op samples, in milliseconds.
struct LatencySummary {
    double p50_ms{0.0};
    double p99_ms{0.0};
    std::uint64_t samples{0};
};

/// Exact p50/p99 of sim-time latencies given in microseconds.
LatencySummary summarize_us(std::vector<SimDuration> latencies_us);

/// Drives a Scheduler with Scheduler::step so the benchmark counts every
/// event the engine runs.  run_until() stops at `deadline` via a sentinel
/// event, so simulated time ends at the deadline like Scheduler::run_until.
///
/// It also reads the process CPU clock at the first event at or after each
/// multiple of kMarkPeriod of sim time.  The marks fall on the same events in
/// every run of a seed, so they cut a measured window into segments that do
/// identical work in every repetition.
class Stepper {
public:
    static constexpr SimDuration kMarkPeriod = 100'000;  // 100 ms of sim time

    explicit Stepper(Scheduler& scheduler) : scheduler_(&scheduler) {}

    void run_until(SimTime deadline);
    void run_for(SimDuration span) { run_until(scheduler_->now() + span); }

    [[nodiscard]] std::uint64_t events() const { return events_; }
    [[nodiscard]] const std::vector<double>& cpu_marks() const { return cpu_marks_; }

private:
    Scheduler* scheduler_;
    std::uint64_t events_{0};
    SimTime next_mark_{kMarkPeriod};
    std::vector<double> cpu_marks_;
};

/// The simulated world every workload builds: scheduler, network, directory.
struct World {
    World(Topology topology, std::uint64_t seed)
        : network(scheduler, std::move(topology), seed), stepper(scheduler) {}

    Scheduler scheduler;
    Network network;
    Directory directory;
    Stepper stepper;
};

/// One request/reply call as the benchmark's client saw it.
struct Call {
    SimTime due{0};  // issue time (closed loop) or scheduled time (open loop)
    SimTime completed{0};
    bool ok{false};
    bool done{false};
};

/// Run `world` in 100 ms steps until every call is done or `stop` is reached.
void drain_calls(World& world, const std::vector<Call>& calls, SimTime stop);

/// When the replicas executed each call, in execution order, by call index.
/// The benchmark's servants note every execution here.
class ExecutionLog {
public:
    void add_call() { entries_.emplace_back(); }

    void note(std::uint64_t call, SimTime at) {
        if (call >= entries_.size()) return;
        Entry& e = entries_[call];
        if (e.count < static_cast<int>(e.at.size())) e.at[static_cast<std::size_t>(e.count)] = at;
        ++e.count;
    }

    /// Sim time of the k-th execution (k from 1) of `call`; -1 if fewer ran.
    [[nodiscard]] SimTime nth(std::size_t call, int k) const {
        const Entry& e = entries_[call];
        return e.count >= k ? e.at[static_cast<std::size_t>(k - 1)] : -1;
    }

private:
    struct Entry {
        int count{0};
        std::array<SimTime, 3> at{};  // the workloads run three replicas
    };
    std::vector<Entry> entries_;
};

/// Records one traced run with the repository's own RingTraceSink and, at
/// the end, runs the LatencyProfiler and the ProtocolOracle over it.
class TraceRecorder {
public:
    /// Ring capacity in events: room for the largest traced workload
    /// (peer_flood, about 0.45 M events) with margin; the profiler refuses
    /// a run that overflows it.
    static constexpr std::size_t kCapacity = std::size_t{1} << 20;

    explicit TraceRecorder(World& world);
    ~TraceRecorder();

    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    struct Result {
        std::uint64_t events{0};
        std::uint64_t dropped{0};
        obs::ProfileReport profile;
        /// Phases of bare multicast payloads (submitted -> shipped ->
        /// arrived -> delivered), built from the same events when the run
        /// has no invocations for the profiler to attribute.
        std::map<std::string, obs::PhaseStats> payload_phases;
        std::vector<obs::Violation> violations;
        double oracle_check_s{0.0};
    };

    /// Detach the sink and analyse the stream.  The dump carries the reply-
    /// wait and delivery-latency histograms as reconciliation expectations.
    Result finish();

private:
    World* world_;
    std::unique_ptr<obs::RingTraceSink> sink_;
};

/// What one run of a workload produced.  Sim-time metrics repeat exactly
/// for a seed; host-time fields are measured.
struct RunOutcome {
    bool correct{true};
    std::string error;  // first failed correctness gate

    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::uint64_t completed{0};  // denominator of every per-op ratio

    double setup_wall_s{0.0};
    double measured_cpu_s{0.0};
    /// measured_cpu_s cut at the Stepper's CPU marks: segment k does the
    /// same work in every run of the seed.
    std::vector<double> segment_cpu_s;
    std::uint64_t events{0};  // scheduler steps in the measured window

    /// Sim-time end-to-end metrics (delivery_*, inv_*, workload.*).
    std::map<std::string, Metric> sim;
    /// Per-layer numbers read from the registry of this run.
    std::map<std::string, Metric> layer;
    /// Host time of the benchmark's own timed calls into a layer, in ns
    /// (e.g. GroupProxy::invoke), by metric name.
    std::map<std::string, std::vector<double>> call_ns;

    /// Fingerprint of everything sim-time this run produced; two runs of one
    /// seed must agree on it.
    std::uint64_t digest{0};

    /// Traced runs only.
    std::unique_ptr<TraceRecorder::Result> trace;

    void fail(const std::string& why) {
        if (correct) error = why;
        correct = false;
    }
};

/// Arguments every workload takes.
struct WorkloadArgs {
    std::uint64_t seed{1};
    bool traced{false};
};

/// Measured-window bracket: CPU time, scheduler steps, heap traffic and the
/// registry counters behind the per-op layer ratios.
class Window {
public:
    explicit Window(World& world);

    /// End the measured window (host clocks and scheduler steps stop here).
    void stop();

    /// Report the window: fills measured_cpu_s, segment_cpu_s and events, and
    /// the per-layer metrics.  Per-op ratios are window deltas divided
    /// by out.completed, so set that first.  Event counts (views, suspicions,
    /// rebinds, ...) are whole-run totals.
    void close(RunOutcome& out);

private:
    [[nodiscard]] double delta(std::string_view name) const;

    World* world_;
    double cpu_start_;
    double cpu_s_{0.0};
    std::size_t marks_start_{0};
    std::vector<double> segments_;
    std::uint64_t events_start_;
    std::uint64_t events_{0};
    std::uint64_t allocs_start_;
    std::uint64_t frees_start_;
    std::uint64_t allocs_{0};
    std::int64_t net_allocs_{0};
    std::map<std::string, std::uint64_t, std::less<>> counters_start_;
};

RunOutcome run_peer_flood(const WorkloadArgs& args);
RunOutcome run_geo_invoke(const WorkloadArgs& args);
RunOutcome run_replica_churn(const WorkloadArgs& args);

/// Layer microloops (host time around single public calls), by metric name.
std::map<std::string, Metric> run_microloops(double payloads_per_data);

/// FNV-1a step over one 64-bit value.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) { return obs::fnv1a64(h, v); }

}  // namespace perfbench
