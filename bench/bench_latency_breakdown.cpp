// Latency attribution — where the paper's ~2.5x NewTop-over-CORBA overhead
// actually goes, phase by phase.
//
// Six profiled request/reply configurations: the non-replicated anchor
// (one server, wait-first — the §5.1.1 "2.5x a plain CORBA call" setup)
// on the LAN and with distant clients, and the replicated 3-server
// wait-all group under both ordering protocols (symmetric vs asymmetric)
// on the LAN and geo-distributed.  Every run decomposes each invocation's
// critical path into marshal / credit_wait / wire / order_wait / cpu_wait /
// execution / reply_collection and cross-checks the phase sums against the
// independently measured reply-wait histograms (>1% mismatch = tracing
// bug, recorded as a failed artifact check and a zero counter).
//
// Emits BENCH_latency_breakdown.json (override with NEWTOP_BENCH_OUT) in
// the shared artifact schema (harness.hpp `Artifact`): one row per config
// with mean latency, throughput and `<phase>_{sum,p50,p90,p99}_us`, the
// dominant phase as a noted-not-diffed value, and one
// `<config>.reconciled` check each.  Set NEWTOP_TRACE_DUMP_OUT=<dir> to
// keep the raw trace dumps for `tools/newtop_prof`.
#include "harness.hpp"

namespace {

using namespace newtop;
using namespace newtop::bench;

struct Config {
    const char* name;
    Setting setting;
    OrderMode order;
    int servers;
    InvocationMode mode;
};

constexpr Config kConfigs[] = {
    {"nonreplicated_lan", Setting::kLan, OrderMode::kTotalAsymmetric, 1,
     InvocationMode::kWaitFirst},
    {"nonreplicated_wan", Setting::kDistantClients, OrderMode::kTotalAsymmetric, 1,
     InvocationMode::kWaitFirst},
    {"replicated_lan_asym", Setting::kLan, OrderMode::kTotalAsymmetric, 3,
     InvocationMode::kWaitAll},
    {"replicated_lan_sym", Setting::kLan, OrderMode::kTotalSymmetric, 3,
     InvocationMode::kWaitAll},
    {"replicated_wan_asym", Setting::kGeo, OrderMode::kTotalAsymmetric, 3,
     InvocationMode::kWaitAll},
    {"replicated_wan_sym", Setting::kGeo, OrderMode::kTotalSymmetric, 3,
     InvocationMode::kWaitAll},
};

RequestReplyResult run_config(const Config& config) {
    RequestReplyOptions options;
    options.setting = config.setting;
    options.servers = config.servers;
    options.clients = 1;
    options.bind = BindOptions{.mode = BindMode::kOpen, .restricted = true};
    options.mode = config.mode;
    options.server_order = config.order;
    options.profile = true;
    return RequestReplyBench::run(options);
}

}  // namespace

int main() {
    Artifact artifact("latency_breakdown", 1);
    for (const Config& config : kConfigs) {
        const RequestReplyResult result = run_config(config);
        const obs::ProfileReport& profile = result.profile;
        ArtifactRow& row = artifact.row(config.name)
                               .lower("mean_latency_ms", result.mean_latency_ms)
                               .higher("req_per_s", result.throughput_rps)
                               .lower("unattributed", profile.unattributed)
                               .info("setting", setting_name(config.setting))
                               .info("order", order_name(config.order))
                               .info("servers", config.servers)
                               .info("mode", static_cast<int>(config.mode))
                               .info("invocations", profile.invocations)
                               .info("dominant", profile.dominant);
        for (const std::string_view phase : obs::phase::kAll) {
            const auto it = profile.phases.find(std::string(phase));
            if (it == profile.phases.end()) continue;
            const std::string prefix(phase);
            row.lower(prefix + "_sum_us", it->second.sum_us)
                .lower(prefix + "_p50_us", it->second.p50_us)
                .lower(prefix + "_p90_us", it->second.p90_us)
                .lower(prefix + "_p99_us", it->second.p99_us);
        }
        artifact.check(std::string(config.name) + ".reconciled", profile.reconciled(),
                       profile.to_text());
    }
    artifact.write();
}
