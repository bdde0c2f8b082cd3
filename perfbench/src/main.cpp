// newtop_perfbench — the NewTop benchmark program.
//
//   newtop_perfbench --workload <peer_flood|geo_invoke|replica_churn>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// Runs the workload repeatedly for about --seconds of host time, each time
// in a fresh simulated world built from --seed, and checks every run's
// correctness gates.  Sim-time metrics must repeat exactly across the
// repetitions; host-time metrics are taken from the fastest of them.
//
// --trace 0 reports the end-to-end metrics.  --trace 1 reports the
// per-layer metrics: registry ratios of the untraced runs, the profiler
// phases and oracle verdict of one traced run, and the layer microloops.
//
// Every metric is printed as "# metric <name> <value> <unit> n=<samples>";
// the last line of stdout is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// The exit code is non-zero when a correctness gate fails.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "obs/names.hpp"

namespace {

using namespace perfbench;

struct Options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
};

// The end-to-end metrics, reported by every workload with --trace 0.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},           {"host_us_per_op", "us"},  {"peak_rss_mb", "MB"},
    {"delivery_p50_ms", "ms"},  {"delivery_p99_ms", "ms"}, {"inv_p50_ms", "ms"},
    {"inv_p99_ms", "ms"}};

// The per-layer metrics, reported by every workload with --trace 1 (0 where
// a layer has nothing to count on that workload).
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    // workload headline numbers that apply to one workload only
    {"workload.flood_capacity_msgs_s", "1/s"},
    {"workload.inv_rps", "1/s"},
    {"workload.outage_max_ms", "ms"},
    {"workload.failed_frac", "ratio"},
    // src/sim
    {"sim.events_per_op", "count"},
    {"sim.events_per_cpu_s", "1/s"},
    {"sim.schedule_step_ns", "ns"},
    {"cpu.busy_us_per_op", "us"},
    {"phase.cpu_wait_p99_us", "us"},
    // src/net
    {"net.msgs_per_op", "count"},
    {"net.bytes_per_op", "B"},
    {"net.wan_msgs_per_op", "count"},
    {"phase.wire_p50_us", "us"},
    // src/serial
    {"serial.gcs_codec_ns", "ns"},
    {"serial.envelope_codec_ns", "ns"},
    {"alloc.allocs_per_op", "count"},
    {"alloc.net_allocs_per_op", "count"},
    // src/orb
    {"orb.calls_per_op", "count"},
    {"orb.roundtrip_host_us", "us"},
    {"phase.marshal_p50_us", "us"},
    // src/gcs ordering
    {"gcs.payloads_per_data", "count"},
    {"gcs.refs_per_order", "count"},
    {"phase.credit_wait_p99_us", "us"},
    {"gcs.nulls_per_op", "count"},
    {"phase.order_wait_p50_us", "us"},
    {"phase.order_wait_p99_us", "us"},
    {"gcs.seq_order_ns", "ns"},
    {"gcs.sym_order_ns", "ns"},
    // src/gcs membership and liveness
    {"gcs.views_installed", "count"},
    {"gcs.flushes_sent", "count"},
    {"gcs.retransmits", "count"},
    {"gcs.suspicion_true", "count"},
    {"gcs.suspicion_false", "count"},
    {"gcs.detection_latency_mean_us", "us"},
    {"gcs.reconfig_stall_mean_us", "us"},
    // src/invocation
    {"invocation.retries_per_op", "count"},
    {"invocation.rebinds", "count"},
    {"invocation.backoffs", "count"},
    {"invocation.shed", "count"},
    {"invocation.bind_shed", "count"},
    {"phase.execution_p50_us", "us"},
    {"phase.reply_collection_p99_us", "us"},
    {"invocation.invoke_call_ns", "ns"},
    // src/newtop and src/replication
    {"recovery.mttr_mean_ms", "ms"},
    {"directory.evictions", "count"},
    {"replication.state_refounds", "count"},
    // src/obs
    {"obs.trace_overhead", "ratio"},
    {"obs.trace_events_per_op", "count"},
    {"obs.metric_add_ns", "ns"},
    {"obs.oracle_check_s", "s"},
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "newtop_perfbench: " << why
              << "\nusage: newtop_perfbench --workload <peer_flood|geo_invoke|replica_churn>"
                 " --seed <n> --seconds <s> --trace <0|1>\n";
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            options.seconds = std::stod(value);
        } else if (flag == "--trace") {
            options.trace = value == "1";
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (options.seconds <= 0) usage("--seconds must be positive");
    return options;
}

std::function<RunOutcome(const WorkloadArgs&)> workload_fn(const std::string& name) {
    if (name == "peer_flood") return run_peer_flood;
    if (name == "geo_invoke") return run_geo_invoke;
    if (name == "replica_churn") return run_replica_churn;
    usage("unknown workload '" + name + "'");
}

std::string number(double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

void print_metric(const std::string& name, const Metric& metric) {
    std::cout << "# metric " << name << " " << number(metric.value) << " " << metric.unit
              << " n=" << metric.samples << "\n";
}

/// Phase percentile of the traced run: from the ProfileReport's invocation
/// chains, or from the payload chains when the run has no invocations (0
/// when the phase does not occur).
Metric phase_metric(const TraceRecorder::Result& trace, std::string_view phase, bool p99) {
    const auto& phases =
        trace.profile.invocations > 0 ? trace.profile.phases : trace.payload_phases;
    const auto it = phases.find(std::string(phase));
    if (it == phases.end()) return {0.0, "us", 0};
    return {static_cast<double>(p99 ? it->second.p99_us : it->second.p50_us), "us",
            it->second.count};
}

/// Process CPU microseconds per completed op in the run's measured window.
double us_per_op_of(const RunOutcome& run) {
    return run.measured_cpu_s * 1e6 /
           static_cast<double>(std::max<std::uint64_t>(run.completed, 1));
}

/// CPU microseconds per op of the measured window, taking each segment (see
/// Stepper) from the repetition that ran it fastest.  On a shared host,
/// contention from other tenants only ever adds time and comes and goes
/// within a run; the per-run median of whole repetitions moved by 40% between
/// runs.  Repetitions of one seed cut their windows identically; should they
/// not, the fastest whole window is used.
double fastest_us_per_op(const std::vector<RunOutcome>& runs) {
    const std::size_t segments = runs.front().segment_cpu_s.size();
    double whole = runs.front().measured_cpu_s;
    std::vector<double> best = runs.front().segment_cpu_s;
    for (const RunOutcome& run : runs) {
        whole = std::min(whole, run.measured_cpu_s);
        if (run.segment_cpu_s.size() != segments) best.clear();
        for (std::size_t k = 0; k < best.size(); ++k) {
            best[k] = std::min(best[k], run.segment_cpu_s[k]);
        }
    }
    double cpu_s = whole;
    if (!best.empty()) {
        cpu_s = 0.0;
        for (const double s : best) cpu_s += s;
    }
    return cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(runs.front().completed, 1));
}

}  // namespace

int main(int argc, char** argv) {
    const Options options = parse(argc, argv);
    const auto run = workload_fn(options.workload);
    const double start = wall_seconds();

    // Untraced repetitions: at least three, then as many as fit the budget
    // (the per-layer mode keeps room for the traced run and microloops).
    const double budget = options.trace ? options.seconds * 0.6 : options.seconds;
    std::vector<RunOutcome> reps;
    std::string error;
    while (true) {
        reps.push_back(run(WorkloadArgs{options.seed, false}));
        const RunOutcome& rep = reps.back();
        if (!rep.correct && error.empty()) error = rep.error;
        if (rep.digest != reps.front().digest && error.empty()) {
            error = "sim-time results differ between two runs of one seed";
        }
        const double elapsed = wall_seconds() - start;
        const double per_rep = elapsed / static_cast<double>(reps.size());
        if (!error.empty()) break;
        if (reps.size() >= 3 && elapsed + per_rep > budget) break;
    }
    const RunOutcome& first = reps.front();

    std::vector<double> setup_s;
    std::vector<double> us_per_op;
    std::vector<double> invoke_ns;
    for (const RunOutcome& rep : reps) {
        setup_s.push_back(rep.setup_wall_s);
        us_per_op.push_back(us_per_op_of(rep));
        const auto calls = rep.call_ns.find("invocation.invoke_call_ns");
        if (calls != rep.call_ns.end()) invoke_ns.push_back(median(calls->second));
    }
    // Host-time numbers take the fastest repetition (per segment for the
    // measured window; see fastest_us_per_op).
    const auto fastest = [](const std::vector<double>& v) {
        return *std::min_element(v.begin(), v.end());
    };
    const double host_us_per_op = fastest_us_per_op(reps);

    std::map<std::string, Metric> metrics;
    const auto& catalogue = options.trace ? kPerLayer : kEndToEnd;
    if (!options.trace) {
        metrics["setup_s"] = {fastest(setup_s), "s", setup_s.size()};
        metrics["host_us_per_op"] = {host_us_per_op, "us", us_per_op.size()};
        metrics["peak_rss_mb"] = {peak_rss_mb(), "MB", 1};
        for (const auto& [name, metric] : first.sim) metrics[name] = metric;
    } else {
        for (const auto& [name, metric] : first.layer) metrics[name] = metric;
        for (const auto& [name, metric] : first.sim) {
            if (name.starts_with("workload.")) metrics[name] = metric;
        }
        metrics["workload.failed_frac"] = {
            static_cast<double>(first.failed) /
                static_cast<double>(std::max<std::uint64_t>(first.attempted, 1)),
            "ratio", first.attempted};
        const double events_per_op = static_cast<double>(first.events) /
                                     static_cast<double>(std::max<std::uint64_t>(first.completed, 1));
        metrics["sim.events_per_cpu_s"] = {events_per_op / (host_us_per_op * 1e-6), "1/s",
                                           reps.size()};
        if (!invoke_ns.empty()) {
            metrics["invocation.invoke_call_ns"] = {fastest(invoke_ns), "ns", invoke_ns.size()};
        }

        // Traced runs: profiler phases and oracle verdict from the first (all
        // agree on sim time); trace overhead from three, measured the same
        // way as the untraced repetitions.
        std::vector<RunOutcome> traced_runs;
        for (int i = 0; i < 3; ++i) traced_runs.push_back(run(WorkloadArgs{options.seed, true}));
        const RunOutcome& traced = traced_runs.front();
        if (!traced.correct && error.empty()) error = "traced run: " + traced.error;
        if (traced.digest != first.digest && error.empty()) {
            error = "tracing changed the sim-time results";
        }
        const TraceRecorder::Result& t = *traced.trace;
        if (t.dropped != 0 && error.empty()) error = "traced run dropped trace events";
        if (!t.violations.empty() && error.empty()) {
            error = "oracle: " + obs::ProtocolOracle::report(t.violations);
        }
        if ((!t.profile.ok || !t.profile.reconciled()) && error.empty()) {
            error = "profiler did not reconcile: " + t.profile.error;
        }
        metrics["obs.trace_overhead"] = {fastest_us_per_op(traced_runs) / host_us_per_op,
                                         "ratio", traced_runs.size()};
        metrics["obs.trace_events_per_op"] = {
            static_cast<double>(t.events) /
                static_cast<double>(std::max<std::uint64_t>(traced.completed, 1)),
            "count", t.events};
        metrics["obs.oracle_check_s"] = {t.oracle_check_s, "s", 1};
        metrics["phase.cpu_wait_p99_us"] = phase_metric(t, obs::phase::kCpuWait, true);
        metrics["phase.wire_p50_us"] = phase_metric(t, obs::phase::kWire, false);
        metrics["phase.marshal_p50_us"] = phase_metric(t, obs::phase::kMarshal, false);
        metrics["phase.credit_wait_p99_us"] =
            phase_metric(t, obs::phase::kCreditWait, true);
        metrics["phase.order_wait_p50_us"] =
            phase_metric(t, obs::phase::kOrderWait, false);
        metrics["phase.order_wait_p99_us"] = phase_metric(t, obs::phase::kOrderWait, true);
        metrics["phase.execution_p50_us"] =
            phase_metric(t, obs::phase::kExecution, false);
        metrics["phase.reply_collection_p99_us"] =
            phase_metric(t, obs::phase::kReplyCollection, true);

        const auto payloads = first.layer.find("gcs.payloads_per_data");
        for (const auto& [name, metric] :
             run_microloops(payloads == first.layer.end() ? 1.0 : payloads->second.value)) {
            metrics[name] = metric;
        }
    }

    std::cout << "# workload " << options.workload << " seed " << options.seed << " reps "
              << reps.size() << " attempted " << first.attempted << " failed " << first.failed
              << "\n# host_us_per_op by rep:";
    for (const double v : us_per_op) std::cout << " " << number(v);
    std::cout << "\n";
    for (const auto& [name, metric] : first.sim) print_metric(name, metric);
    if (options.trace) {
        for (const auto& [name, metric] : metrics) {
            if (!first.sim.contains(name)) print_metric(name, metric);
        }
    } else {
        for (const std::string name : {"setup_s", "host_us_per_op", "peak_rss_mb"}) {
            print_metric(name, metrics[name]);
        }
    }
    if (!error.empty()) {
        std::cerr << "newtop_perfbench: correctness gate failed: " << error << "\n";
        std::cout << "# FAILED " << error << "\n";
        return 1;
    }

    std::ostringstream json;
    json << "{\"correct\": true, \"attempted\": " << first.attempted
         << ", \"failed\": " << first.failed << ", \"metrics\": {";
    bool comma = false;
    for (const auto& [name, unit] : catalogue) {
        const auto it = metrics.find(name);
        const double value = it == metrics.end() ? 0.0 : it->second.value;
        json << (comma ? ", " : "") << "\"" << name << "\": {\"value\": " << number(value)
             << ", \"unit\": \"" << unit << "\"}";
        comma = true;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
}
