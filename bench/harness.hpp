// Shared benchmark harness reproducing the paper's evaluation setups (§5).
//
// Network settings mirror the three client/server group configurations:
//   (i)   low latency: clients and servers on the same LAN,
//   (ii)  low + high latency: servers on the Newcastle LAN, clients split
//         between London and Pisa,
//   (iii) high latency: servers and clients spread over Newcastle, London
//         and Pisa.
//
// Client behaviour follows §5.1: closed-loop clients ("as soon as a reply
// is received, another request is issued"), each timed over a fixed number
// of requests after a short warm-up; we report the mean response time per
// request and the aggregate server throughput.
#pragma once

#include <benchmark/benchmark.h>

#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alloc_hook.hpp"
#include "net/calibration.hpp"
#include "newtop/newtop_service.hpp"
#include "obs/export.hpp"
#include "obs/names.hpp"
#include "obs/profiler.hpp"

namespace newtop::bench {

using namespace sim_literals;

enum class Setting : std::uint8_t { kLan, kDistantClients, kGeo };

inline const char* setting_name(Setting s) {
    switch (s) {
        case Setting::kLan: return "lan";
        case Setting::kDistantClients: return "distant-clients";
        case Setting::kGeo: return "geo-distributed";
    }
    return "?";
}

/// NEWTOP_TRACE_DUMP_OUT=<dir> keeps a profiled run's raw TraceDump as
/// <dir>/<label>.trace.json for offline `newtop_prof`.
inline void write_trace_dump(const obs::TraceDump& dump, const std::string& label) {
    // newtop-lint: allow(getenv): artifact destination only; cannot influence simulated behaviour
    const char* dump_dir = std::getenv("NEWTOP_TRACE_DUMP_OUT");
    if (dump_dir == nullptr || *dump_dir == '\0') return;
    const std::filesystem::path dir(dump_dir);
    std::filesystem::create_directories(dir);
    const std::filesystem::path path = dir / (label + ".trace.json");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << dump.to_json();
    std::cout << "# trace-dump " << path.string() << "\n";
}

/// The paper's benchmark servant: returns a pseudo-random number.
class RandomNumberServant : public GroupServant {
public:
    explicit RandomNumberServant(std::uint64_t seed) : rng_(seed) {}

    Bytes handle(std::uint32_t, const Bytes&) override {
        return encode_to_bytes(rng_.next_u64());
    }

private:
    Rng rng_;
};

struct RequestReplyResult {
    double mean_latency_ms{0.0};
    double throughput_rps{0.0};
    std::uint64_t wire_messages{0};
    /// Full deterministic dump of the world's metrics registry (counters +
    /// latency histograms) at the end of the run.
    std::string metrics_json;
    /// Per-phase critical-path attribution (options.profile only): every
    /// invocation decomposed into marshal / credit_wait / wire / order_wait
    /// / cpu_wait / execution / reply_collection, reconciled against the
    /// independently measured reply-wait histograms.
    obs::ProfileReport profile;
};

struct RequestReplyOptions {
    Setting setting{Setting::kLan};
    int servers{3};
    int clients{1};
    BindOptions bind{};
    InvocationMode mode{InvocationMode::kWaitFirst};
    OrderMode server_order{OrderMode::kTotalAsymmetric};
    int requests_per_client{100};
    int warmup_per_client{5};
    std::uint64_t seed{1};
    /// Trace the whole run (bounded ring), sample the queue/credit gauges,
    /// and attribute every invocation's latency to protocol phases; the
    /// report lands in RequestReplyResult::profile.  NEWTOP_TRACE_DUMP_OUT
    /// additionally writes the raw TraceDump for offline `newtop_prof`.
    bool profile{false};
};

/// One complete request/reply experiment: build the world, run the closed
/// loops, report latency and throughput.
class RequestReplyBench {
public:
    static RequestReplyResult run(const RequestReplyOptions& options) {
        RequestReplyBench bench(options);
        return bench.execute();
    }

private:
    explicit RequestReplyBench(const RequestReplyOptions& options)
        : options_(options),
          sites_(calibration::make_paper_topology()),
          network_(scheduler_, std::move(sites_.topology), options.seed) {}

    struct Client {
        std::unique_ptr<Orb> orb;
        std::unique_ptr<NewTopService> nso;
        GroupProxy proxy;
        int completed{0};
        SimTime issued_at{0};
        SimTime first_measured_issue{-1};
        SimTime last_completion{0};
        std::vector<SimDuration> latencies;
    };

    [[nodiscard]] SiteId server_site(int index) const {
        if (options_.setting == Setting::kGeo) {
            const SiteId spread[3] = {sites_.newcastle, sites_.london, sites_.pisa};
            return spread[index % 3];
        }
        return sites_.newcastle;
    }

    [[nodiscard]] SiteId client_site(int index) const {
        switch (options_.setting) {
            case Setting::kLan: return sites_.newcastle;
            case Setting::kDistantClients:
                return index % 2 == 0 ? sites_.london : sites_.pisa;
            case Setting::kGeo: {
                const SiteId spread[3] = {sites_.newcastle, sites_.london, sites_.pisa};
                return spread[index % 3];
            }
        }
        return sites_.newcastle;
    }

    void issue_next(Client& client) {
        client.issued_at = scheduler_.now();
        if (client.completed == options_.warmup_per_client &&
            client.first_measured_issue < 0) {
            client.first_measured_issue = scheduler_.now();
        }
        client.proxy.invoke(1, Bytes{}, options_.mode, [this, &client](const GroupReply&) {
            on_completion(client);
        });
    }

    void on_completion(Client& client) {
        if (client.completed >= options_.warmup_per_client) {
            client.latencies.push_back(scheduler_.now() - client.issued_at);
            client.last_completion = scheduler_.now();
        }
        ++client.completed;
        if (client.completed < options_.warmup_per_client + options_.requests_per_client) {
            issue_next(client);
        }
    }

    /// Deterministic experiment label: doubles as the trace file name, so a
    /// same-seed rerun overwrites its predecessor with identical bytes.
    [[nodiscard]] std::string label() const {
        return std::string("rr_") + setting_name(options_.setting) +
               (options_.bind.mode == BindMode::kClosed ? "_closed" : "_open") + "_s" +
               std::to_string(options_.servers) + "_c" + std::to_string(options_.clients) +
               "_m" + std::to_string(static_cast<int>(options_.mode)) + "_o" +
               std::to_string(static_cast<int>(options_.server_order)) + "_seed" +
               std::to_string(options_.seed);
    }

    void append_expectation(obs::TraceDump& dump, std::string_view metric) {
        if (const obs::LatencyHistogram* h = network_.metrics().histogram(metric)) {
            dump.expectations.push_back(
                obs::TraceExpectation{std::string(metric), h->count(), h->sum()});
        }
    }

    RequestReplyResult execute() {
        // NEWTOP_TRACE_OUT=<dir> installs a bounded ring sink for the whole
        // experiment and writes a Perfetto-loadable JSON per run.
        // newtop-lint: allow(getenv): export destination only; cannot influence simulated behaviour
        const char* trace_dir = std::getenv("NEWTOP_TRACE_OUT");
        std::unique_ptr<obs::RingTraceSink> trace_sink;
        if (options_.profile || (trace_dir != nullptr && *trace_dir != '\0')) {
            trace_sink = std::make_unique<obs::RingTraceSink>(std::size_t{1} << 20);
            trace_sink->attach_metrics(&network_.metrics());
            network_.metrics().set_trace_sink(trace_sink.get());
        }
        if (options_.profile) {
            // Queue/credit time series ride along with the trace: holdback
            // depth, credits in flight, blocked sends, CPU backlog and
            // directory size sampled on fixed sim-time ticks.
            network_.enable_gauge_sampling(100_ms, 700_s);
        }

        // Servers.
        GroupConfig server_config;
        server_config.order = options_.server_order;
        for (int i = 0; i < options_.servers; ++i) {
            server_orbs_.push_back(
                std::make_unique<Orb>(network_, network_.add_node(server_site(i))));
            server_nsos_.push_back(
                std::make_unique<NewTopService>(*server_orbs_.back(), directory_));
            server_nsos_.back()->serve("svc", server_config,
                                       std::make_shared<RandomNumberServant>(options_.seed));
            scheduler_.run_until(scheduler_.now() + 300_ms);
        }

        // Clients.
        for (int i = 0; i < options_.clients; ++i) {
            auto client = std::make_unique<Client>();
            client->orb = std::make_unique<Orb>(network_, network_.add_node(client_site(i)));
            client->nso = std::make_unique<NewTopService>(*client->orb, directory_);
            client->proxy = client->nso->bind("svc", options_.bind);
            clients_.push_back(std::move(client));
        }
        scheduler_.run_until(scheduler_.now() + 2_s);  // bindings settle

        const std::uint64_t wire_before = network_.stats().messages_sent;
        for (auto& client : clients_) issue_next(*client);

        // Run until every client has finished its measured batch (bounded
        // for safety: a wedged configuration shows up as zero throughput).
        const int total = options_.warmup_per_client + options_.requests_per_client;
        const SimDuration step = 1_s;
        for (int guard = 0; guard < 600; ++guard) {
            scheduler_.run_until(scheduler_.now() + step);
            bool all_done = true;
            for (const auto& client : clients_) all_done &= client->completed >= total;
            if (all_done) break;
        }

        RequestReplyResult result;
        result.wire_messages = network_.stats().messages_sent - wire_before;
        std::vector<double> per_client_means;
        SimTime first_issue = -1;
        SimTime last_completion = 0;
        std::size_t measured = 0;
        for (const auto& client : clients_) {
            if (client->latencies.empty()) continue;
            const double sum = std::accumulate(client->latencies.begin(),
                                               client->latencies.end(), 0.0);
            per_client_means.push_back(sum / static_cast<double>(client->latencies.size()));
            measured += client->latencies.size();
            if (first_issue < 0 || client->first_measured_issue < first_issue) {
                first_issue = client->first_measured_issue;
            }
            last_completion = std::max(last_completion, client->last_completion);
        }
        if (!per_client_means.empty()) {
            result.mean_latency_ms =
                to_ms(static_cast<SimDuration>(std::accumulate(per_client_means.begin(),
                                                               per_client_means.end(), 0.0) /
                                               static_cast<double>(per_client_means.size())));
        }
        if (last_completion > first_issue && first_issue >= 0) {
            result.throughput_rps = static_cast<double>(measured) /
                                    to_seconds(last_completion - first_issue);
        }
        result.metrics_json = network_.metrics().to_json();

        if (trace_sink != nullptr) {
            network_.metrics().set_trace_sink(nullptr);
        }
        if (options_.profile && trace_sink != nullptr) {
            // Package the stream as a self-describing dump: the embedded
            // histogram totals are what the profiler reconciles its phase
            // sums against (>1% mismatch = tracing bug).
            obs::TraceDump dump = trace_sink->dump();
            append_expectation(dump, obs::metric::kInvReplyWaitOneway);
            append_expectation(dump, obs::metric::kInvReplyWaitFirst);
            append_expectation(dump, obs::metric::kInvReplyWaitMajority);
            append_expectation(dump, obs::metric::kInvReplyWaitAll);
            append_expectation(dump, obs::metric::kInvReplyWaitOther);
            append_expectation(dump, obs::metric::kGcsDeliveryLatencyUs);
            result.profile = obs::LatencyProfiler{}.analyze(dump);
            write_trace_dump(dump, label());
        }
        if (trace_dir != nullptr && *trace_dir != '\0' && trace_sink != nullptr) {
            obs::ExportOptions export_options;
            for (const auto& nso : server_nsos_) {
                export_options.actor_to_node[nso->id().value()] =
                    nso->orb().node_id().value();
            }
            for (const auto& client : clients_) {
                export_options.actor_to_node[client->nso->id().value()] =
                    client->orb->node_id().value();
            }
            const std::filesystem::path dir(trace_dir);
            std::filesystem::create_directories(dir);
            const std::filesystem::path path = dir / (label() + ".json");
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << obs::export_chrome_trace(trace_sink->snapshot(), export_options);
            out.close();
            std::cout << "# trace " << path.string() << "\n";
        }
        return result;
    }

    RequestReplyOptions options_;
    Scheduler scheduler_;
    calibration::PaperSites sites_;
    Network network_;
    Directory directory_;
    std::vector<std::unique_ptr<Orb>> server_orbs_;
    std::vector<std::unique_ptr<NewTopService>> server_nsos_;
    std::vector<std::unique_ptr<Client>> clients_;
};

/// Emit a world's metrics dump on stdout.  One line per experiment, grep-
/// friendly prefix; the JSON itself is deterministic for a given seed.
inline void emit_metrics(const std::string& metrics_json) {
    if (!metrics_json.empty()) std::cout << "# metrics " << metrics_json << "\n";
}

/// Attach the standard result counters to a google-benchmark state and
/// print the metrics blob for the run.
inline void report(::benchmark::State& state, const RequestReplyResult& result) {
    state.counters["latency_ms"] = result.mean_latency_ms;
    state.counters["req_per_s"] = result.throughput_rps;
    state.counters["wire_msgs"] = static_cast<double>(result.wire_messages);
    emit_metrics(result.metrics_json);
}

/// One configuration of a bench artifact.  `lower` and `higher` metrics are
/// compared by scripts/bench_diff.py in their tagged direction; `info`
/// values describe the configuration and are never diffed, only noted when
/// they change.  Names and string values are plain identifiers (no JSON
/// escaping).
class ArtifactRow {
public:
    explicit ArtifactRow(std::string name) : name_(std::move(name)) {}

    ArtifactRow& lower(std::string_view metric, std::convertible_to<double> auto value) {
        return add(lower_, metric, format_number(static_cast<double>(value)));
    }
    ArtifactRow& higher(std::string_view metric, std::convertible_to<double> auto value) {
        return add(higher_, metric, format_number(static_cast<double>(value)));
    }
    ArtifactRow& info(std::string_view key, std::convertible_to<double> auto value) {
        return add(info_, key, format_number(static_cast<double>(value)));
    }
    ArtifactRow& info(std::string_view key, std::string_view value) {
        std::string quoted(1, '"');
        quoted.append(value).push_back('"');
        return add(info_, key, quoted);
    }

    [[nodiscard]] std::string to_json() const {
        return "{\"name\":\"" + name_ + "\",\"lower\":{" + lower_ + "},\"higher\":{" +
               higher_ + "},\"info\":{" + info_ + "}}";
    }

private:
    /// Six decimals, trailing zeros dropped: integers print as integers and
    /// every value is reproducible byte for byte from a seeded run.
    static std::string format_number(double value) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f", value);
        std::string out(buf);
        out.erase(out.find_last_not_of('0') + 1);
        if (out.back() == '.') out.pop_back();
        return out;
    }

    ArtifactRow& add(std::string& members, std::string_view key, const std::string& value) {
        if (!members.empty()) members += ',';
        members += '"';
        members.append(key).append("\":").append(value);
        return *this;
    }

    std::string name_;
    std::string lower_;
    std::string higher_;
    std::string info_;
};

/// The one artifact schema every BENCH_<bench>.json uses:
///   {"bench":..,"seed":..,"rows":[{"name":..,"lower":{..},"higher":{..},
///    "info":{..}}, ..],"checks":{"<invariant>":true|false}}
/// A check records an invariant the run must hold; scripts/bench_diff.py
/// fails on any false check, while metric drift stays advisory.
class Artifact {
public:
    Artifact(std::string bench, std::uint64_t seed) : bench_(std::move(bench)), seed_(seed) {}

    /// References stay valid across later row() calls (deque storage).
    ArtifactRow& row(std::string name) { return rows_.emplace_back(std::move(name)); }

    /// Record an invariant; a violation is also reported on stderr with
    /// `detail` so a console run explains itself.
    void check(const std::string& invariant, bool holds, const std::string& detail) {
        if (!checks_.empty()) checks_ += ',';
        checks_.append("\"").append(invariant).append(holds ? "\":true" : "\":false");
        if (!holds) std::cerr << "# CHECK FAILED: " << invariant << "\n" << detail;
    }

    /// Write to NEWTOP_BENCH_OUT, or to BENCH_<bench>.json in the working
    /// directory.
    void write() const {
        // newtop-lint: allow(getenv): artifact destination only; cannot influence simulated behaviour
        const char* out_path = std::getenv("NEWTOP_BENCH_OUT");
        std::filesystem::path path = "BENCH_" + bench_ + ".json";
        if (out_path != nullptr && *out_path != '\0') path = out_path;
        std::ofstream out(path, std::ios::trunc);
        out << "{\"bench\":\"" << bench_ << "\",\"seed\":" << seed_ << ",\"rows\":[";
        const char* sep = "\n";
        for (const ArtifactRow& row : rows_) {
            out << sep << row.to_json();
            sep = ",\n";
        }
        out << "\n],\"checks\":{" << checks_ << "}}\n";
        std::cout << "# artifact " << path.string() << "\n";
    }

private:
    std::string bench_;
    std::uint64_t seed_;
    std::deque<ArtifactRow> rows_;
    std::string checks_;  // JSON members, in check() order
};

}  // namespace newtop::bench
