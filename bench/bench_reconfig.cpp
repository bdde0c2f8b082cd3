// Invocation latency through a runtime reconfiguration (view-synchronous
// protocol switch) under load.
//
// A 3-replica wait-all group starts under the symmetric ordering protocol
// while one client issues a fixed-rate stream of invocations.  Eight times
// during the stream a member proposes a sym<->asym protocol toggle through
// the group's own total order (each switch window is a single flush round,
// so episodes are pooled to give the through-switch tail real support).
// Every call's response time is recorded and attributed to one of three
// windows:
//
//   steady_symmetric  : issued and completed under the symmetric protocol,
//   through_switch    : in flight while a flush + view install ran,
//   steady_asymmetric : issued and completed under the asymmetric protocol.
//
// The through-switch p99 is the headline number: it bounds the latency a
// client observes when an operator retunes a live group.  The run also
// checks the view-synchrony contract observably — zero lost or incomplete
// invocations across the boundary, and every replica installing every
// switch.
//
// Emits BENCH_reconfig.json (override with NEWTOP_BENCH_OUT) in the shared
// artifact schema (harness.hpp `Artifact`): one row per window, a "switch"
// row with the install lag and the lost/incomplete counts, and one check per
// view-synchrony invariant.
#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace {

using namespace newtop;
using namespace newtop::bench;
using namespace newtop::sim_literals;

constexpr int kServers = 3;
constexpr int kCalls = 600;
constexpr SimTime kCallSpacing = 10_ms;
// Eight sym<->asym toggles spread through the stream: each switch window is
// short (~one flush round), so a single episode yields one or two in-flight
// samples — pooling episodes gives the through-switch p99 real support.
constexpr int kFirstSwitchCall = 100;
constexpr int kCallsBetweenSwitches = 60;
constexpr int kEpisodes = 8;

struct CallRecord {
    SimTime issued{0};
    SimTime completed{0};
    std::size_t replies{0};
    bool done{false};
};

struct PhaseStats {
    std::uint64_t calls{0};
    double mean_ms{0.0};
    double p50_ms{0.0};
    double p99_ms{0.0};
    double max_ms{0.0};
};

PhaseStats summarize(std::vector<double>& latencies_us) {
    PhaseStats stats;
    stats.calls = latencies_us.size();
    if (latencies_us.empty()) return stats;
    std::sort(latencies_us.begin(), latencies_us.end());
    double sum = 0.0;
    for (const double v : latencies_us) sum += v;
    auto at_quantile = [&](double q) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(latencies_us.size())));
        return latencies_us[rank == 0 ? 0 : rank - 1] / 1000.0;
    };
    stats.mean_ms = sum / static_cast<double>(latencies_us.size()) / 1000.0;
    stats.p50_ms = at_quantile(0.50);
    stats.p99_ms = at_quantile(0.99);
    stats.max_ms = latencies_us.back() / 1000.0;
    return stats;
}

struct Episode {
    SimTime proposed_at{0};
    SimTime installed_at{0};
    OrderMode to{OrderMode::kTotalAsymmetric};
};

struct ReconfigResult {
    PhaseStats symmetric;
    PhaseStats through;
    PhaseStats asymmetric;
    std::vector<Episode> episodes;
    SimTime max_install_lag{0};
    SimTime mean_install_lag{0};
    std::uint64_t reconfig_switches{0};
    std::uint64_t lost{0};
    std::uint64_t incomplete{0};
};

ReconfigResult run_reconfig(std::uint64_t seed) {
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
    for (int i = 0; i < kServers; ++i) {
        add().serve("svc", cfg, std::make_shared<RandomNumberServant>(seed + 1 + i));
        scheduler.run_until(scheduler.now() + 300_ms);
    }
    NewTopService& client = add();
    GroupProxy proxy = client.bind("svc", {.mode = BindMode::kOpen, .restricted = true});
    scheduler.run_until(scheduler.now() + 2_s);

    const auto* info = directory.find_group("svc");
    const GroupId group = info->id;

    ReconfigResult result;
    result.episodes.reserve(kEpisodes);
    std::vector<CallRecord> calls(kCalls);
    for (int k = 0; k < kCalls; ++k) {
        calls[static_cast<std::size_t>(k)].issued = scheduler.now();
        proxy.invoke(1, encode_to_bytes(static_cast<std::uint64_t>(k)),
                     InvocationMode::kWaitAll, [&, k](const GroupReply& reply) {
                         CallRecord& record = calls[static_cast<std::size_t>(k)];
                         record.completed = scheduler.now();
                         record.replies = reply.replies.size();
                         record.done = true;
                     });
        const int since_first = k - kFirstSwitchCall;
        if (since_first >= 0 && since_first % kCallsBetweenSwitches == 0 &&
            since_first / kCallsBetweenSwitches < kEpisodes) {
            // A member proposes the toggle through the group's own total
            // order; a probe then watches for every replica to install the
            // new configuration — the last install delimits the
            // through-switch window.
            const auto episode_index = result.episodes.size();
            const std::uint64_t expected_epoch = episode_index + 1;
            Episode episode;
            episode.proposed_at = scheduler.now();
            episode.to = episode_index % 2 == 0 ? OrderMode::kTotalAsymmetric
                                                : OrderMode::kTotalSymmetric;
            result.episodes.push_back(episode);
            GroupConfig next = cfg;
            next.order = episode.to;
            nsos[0]->reconfigure(group, next);
            auto probe = std::make_shared<std::function<void()>>();
            *probe = [&, probe, episode_index, expected_epoch] {
                for (int i = 0; i < kServers; ++i) {
                    if (nsos[static_cast<std::size_t>(i)]->config_epoch(group) <
                        expected_epoch) {
                        scheduler.schedule_at(scheduler.now() + 500_us, *probe);
                        return;
                    }
                }
                if (result.episodes[episode_index].installed_at == 0) {
                    result.episodes[episode_index].installed_at = scheduler.now();
                }
            };
            scheduler.schedule_at(scheduler.now() + 500_us, *probe);
        }
        scheduler.run_until(scheduler.now() + kCallSpacing);
    }
    scheduler.run_until(scheduler.now() + 10_s);

    result.reconfig_switches = net.metrics().counter(obs::metric::kGcsReconfigs);
    SimTime lag_sum = 0;
    for (const Episode& episode : result.episodes) {
        const SimTime lag = episode.installed_at - episode.proposed_at;
        lag_sum += lag;
        result.max_install_lag = std::max(result.max_install_lag, lag);
    }
    if (!result.episodes.empty()) {
        result.mean_install_lag = lag_sum / static_cast<SimTime>(result.episodes.size());
    }

    // Attribute each call: in flight across any switch window -> "through";
    // otherwise to the steady-state protocol in force when it was issued.
    auto overlaps_switch = [&](const CallRecord& record) {
        for (const Episode& episode : result.episodes) {
            if (record.completed > episode.proposed_at &&
                (episode.installed_at == 0 || record.issued < episode.installed_at)) {
                return true;
            }
        }
        return false;
    };
    auto order_at = [&](SimTime at) {
        OrderMode order = cfg.order;
        for (const Episode& episode : result.episodes) {
            if (episode.installed_at != 0 && episode.installed_at <= at) order = episode.to;
        }
        return order;
    };
    std::vector<double> sym_us;
    std::vector<double> through_us;
    std::vector<double> asym_us;
    for (const CallRecord& record : calls) {
        if (!record.done) {
            ++result.lost;
            continue;
        }
        if (record.replies != static_cast<std::size_t>(kServers)) ++result.incomplete;
        const auto latency = static_cast<double>(record.completed - record.issued);
        if (overlaps_switch(record)) {
            through_us.push_back(latency);
        } else if (order_at(record.issued) == OrderMode::kTotalSymmetric) {
            sym_us.push_back(latency);
        } else {
            asym_us.push_back(latency);
        }
    }
    result.symmetric = summarize(sym_us);
    result.through = summarize(through_us);
    result.asymmetric = summarize(asym_us);
    return result;
}

void add_row(Artifact& artifact, const char* name, const PhaseStats& stats) {
    artifact.row(name)
        .lower("mean_latency_ms", stats.mean_ms)
        .lower("p50_latency_ms", stats.p50_ms)
        .lower("p99_latency_ms", stats.p99_ms)
        .lower("max_latency_ms", stats.max_ms)
        .info("calls", stats.calls);
}

void BM_Reconfig(benchmark::State& state) {
    for (auto _ : state) {
        const ReconfigResult result = run_reconfig(1);

        Artifact artifact("reconfig", 1);
        add_row(artifact, "steady_symmetric", result.symmetric);
        add_row(artifact, "through_switch", result.through);
        add_row(artifact, "steady_asymmetric", result.asymmetric);
        artifact.row("switch")
            .lower("mean_install_lag_us", result.mean_install_lag)
            .lower("max_install_lag_us", result.max_install_lag)
            .lower("lost", result.lost)
            .lower("incomplete", result.incomplete)
            .info("episodes", result.episodes.size())
            .info("switches", result.reconfig_switches);
        const std::string counts = "lost=" + std::to_string(result.lost) +
                                   " incomplete=" + std::to_string(result.incomplete) +
                                   " switches=" + std::to_string(result.reconfig_switches) +
                                   "\n";
        artifact.check("switch.no_lost_calls", result.lost == 0, counts);
        artifact.check("switch.no_incomplete_calls", result.incomplete == 0, counts);
        artifact.check("switch.every_replica_switched",
                       result.reconfig_switches ==
                           static_cast<std::uint64_t>(kEpisodes * kServers),
                       counts);
        artifact.write();

        state.counters["sym_p99_ms"] = result.symmetric.p99_ms;
        state.counters["through_p99_ms"] = result.through.p99_ms;
        state.counters["asym_p99_ms"] = result.asymmetric.p99_ms;
        state.counters["mean_install_lag_ms"] =
            static_cast<double>(result.mean_install_lag) / 1000.0;
        state.counters["lost"] = static_cast<double>(result.lost);
        state.counters["incomplete"] = static_cast<double>(result.incomplete);
    }
}
BENCHMARK(BM_Reconfig)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
