// The paper's evaluation (§5) in one program, each configuration run once:
// Table 1, Graphs 1-18, the §5.1.3 and §5.2 text, and two extra
// experiments (the §4.2 optimisation ablation and crash-recovery MTTR).
//
// Writes BENCH_paper.json (override with NEWTOP_BENCH_OUT) in the shared
// artifact schema (harness.hpp `Artifact`): one row per configuration,
// named by its label, plus `checks` for the shapes the paper states.
// Figures that share a configuration read the same row; DESIGN.md's
// per-experiment index says which rows serve which figure.  Every
// experiment also prints its world's `# metrics` line.
#include "harness.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "net/calibration.hpp"
#include "newtop/newtop_service.hpp"
#include "newtop/recovery_manager.hpp"
#include "orb/orb.hpp"
#include "replication/recoverable.hpp"
#include "serial/serial.hpp"
#include "util/rng.hpp"

namespace {

using namespace newtop;
using namespace newtop::bench;

// ---------------------------------------------------------------------------
// Table 1 — "Performance of CORBA": one-to-one ORB invocations *without* the
// NewTop service.  These anchor everything else: the LAN row should be
// ~1 ms and a NewTop call ~2.5x of it.

class RandomServant : public Servant {
public:
    Bytes dispatch(std::uint32_t, BytesView) override {
        return encode_to_bytes(rng_.next_u64());
    }

private:
    Rng rng_{7};
};

struct DirectResult {
    double latency_ms;
    double throughput_rps;
    std::string metrics_json;
};

DirectResult run_direct(SiteId client_site, SiteId server_site, Topology topology) {
    Scheduler scheduler;
    Network network(scheduler, std::move(topology), 3);
    Orb server(network, network.add_node(server_site));
    Orb client(network, network.add_node(client_site));
    const Ior target = server.adapter().activate(std::make_shared<RandomServant>(), "Random");

    constexpr int kWarmup = 5;
    constexpr int kMeasured = 100;
    int completed = 0;
    SimTime issued_at = 0;
    SimDuration latency_sum = 0;

    std::function<void()> issue = [&] {
        issued_at = scheduler.now();
        client.invoke(target, 1, Bytes{}, [&](ReplyStatus, const Bytes&) {
            if (completed >= kWarmup) latency_sum += scheduler.now() - issued_at;
            if (++completed < kWarmup + kMeasured) issue();
        });
    };
    issue();
    scheduler.run_until(scheduler.now() + 60_s);

    DirectResult result{};
    result.latency_ms = to_ms(latency_sum) / kMeasured;
    // One closed-loop client: throughput is the inverse of its latency.
    result.throughput_rps = 1000.0 / result.latency_ms;
    result.metrics_json = network.metrics().to_json();
    return result;
}

struct CorbaPath {
    const char* name;
    SiteId calibration::PaperSites::*client;
    SiteId calibration::PaperSites::*server;
};

/// Longest path first: `table1.paths_ordered` holds the measured latencies
/// to this order.
constexpr CorbaPath kCorbaPaths[] = {
    {"corba_pisa-newcastle", &calibration::PaperSites::pisa,
     &calibration::PaperSites::newcastle},
    {"corba_pisa-london", &calibration::PaperSites::pisa, &calibration::PaperSites::london},
    {"corba_london-newcastle", &calibration::PaperSites::london,
     &calibration::PaperSites::newcastle},
    {"corba_lan", &calibration::PaperSites::newcastle, &calibration::PaperSites::newcastle},
};

// ---------------------------------------------------------------------------
// Request/reply experiments (§5.1), one closed-loop client per count.

/// Graphs 1-4: a single-member server group through the NewTop service.
/// On the LAN one client already saturates the server, so latency climbs
/// with clients while throughput flattens; over the Internet throughput
/// keeps growing with clients (§5.1.1).
RequestReplyOptions nonreplicated(Setting setting) {
    return {.setting = setting,
            .servers = 1,
            .bind = {.mode = BindMode::kOpen, .restricted = true},
            .mode = InvocationMode::kWaitFirst,
            .server_order = OrderMode::kTotalAsymmetric};
}

/// Three servers behind an open binding, wait-for-first (§4.2).  Plain
/// clients pick request managers by hash; restricted clients all use the
/// leader, which is also the sequencer, so its forward self-orders;
/// async-forwarding managers answer from their own execution and forward
/// one-way, the passive-replication shape.  Restricted+async is Graphs
/// 5-10's optimised group, which should closely match the non-replicated
/// server (§5.1.2).
RequestReplyOptions open_group(Setting setting, bool restricted, bool async) {
    return {.setting = setting,
            .servers = 3,
            .bind = {.mode = BindMode::kOpen,
                     .restricted = restricted,
                     .async_forwarding = async},
            .mode = InvocationMode::kWaitFirst,
            .server_order = OrderMode::kTotalAsymmetric};
}

/// Three servers, wait-for-all, one ordering protocol for the server group
/// and the client/server group (Graphs 11-16 and the §5.1.3 ablation).
/// Closed clients join all servers' communication; open clients go through
/// the restricted request manager.  Closed degrades faster as clients are
/// added, most of all behind high-latency paths; closed + symmetric sends
/// the most protocol traffic; under open binding the two protocols are
/// close.
RequestReplyOptions wait_all(Setting setting, BindMode bind, OrderMode order) {
    return {.setting = setting,
            .servers = 3,
            .bind = {.mode = bind, .restricted = bind == BindMode::kOpen, .cs_order = order},
            .mode = InvocationMode::kWaitAll,
            .server_order = order};
}

struct Sweep {
    RequestReplyOptions options;
    std::vector<int> clients;
};

/// Graphs 1-16 sweep 1..20 clients.
const std::vector<int> kGraphClients = {1, 4, 7, 10, 13, 16, 19, 20};

/// Every request/reply configuration, once.  A figure whose configuration
/// an earlier sweep already runs reads that sweep's rows.
std::vector<Sweep> request_reply_table() {
    constexpr Setting kLan = Setting::kLan;
    constexpr Setting kDistant = Setting::kDistantClients;
    constexpr Setting kGeo = Setting::kGeo;
    constexpr OrderMode kSym = OrderMode::kTotalSymmetric;
    constexpr OrderMode kAsym = OrderMode::kTotalAsymmetric;
    return {
        // Graphs 1-4; also the non-replicated baseline of Graphs 5-8.
        {nonreplicated(kLan), kGraphClients},
        {nonreplicated(kDistant), kGraphClients},
        // Graphs 5-10: the optimised open group against the non-replicated
        // server.
        {open_group(kLan, true, true), kGraphClients},
        {open_group(kDistant, true, true), kGraphClients},
        {open_group(kGeo, true, true), kGraphClients},
        {nonreplicated(kGeo), kGraphClients},
        // Graphs 11-16: closed vs open.
        {wait_all(kLan, BindMode::kClosed, kAsym), kGraphClients},
        {wait_all(kLan, BindMode::kOpen, kAsym), kGraphClients},
        {wait_all(kDistant, BindMode::kClosed, kAsym), kGraphClients},
        {wait_all(kDistant, BindMode::kOpen, kAsym), kGraphClients},
        {wait_all(kGeo, BindMode::kClosed, kAsym), kGraphClients},
        {wait_all(kGeo, BindMode::kOpen, kAsym), kGraphClients},
        // §5.1.3 ordering ablation at 1, 4 and 8 LAN clients; asymmetric
        // at 1 and 4 is Graphs 11-12.
        {wait_all(kLan, BindMode::kClosed, kSym), {1, 4, 8}},
        {wait_all(kLan, BindMode::kClosed, kAsym), {8}},
        {wait_all(kLan, BindMode::kOpen, kSym), {1, 4, 8}},
        {wait_all(kLan, BindMode::kOpen, kAsym), {8}},
        // §4.2 optimisation ablation at 1 and 8 clients; restricted+async
        // at 1 is Graphs 5-8.
        {open_group(kLan, false, false), {1, 8}},
        {open_group(kLan, true, false), {1, 8}},
        {open_group(kLan, true, true), {8}},
        {open_group(kDistant, false, false), {1, 8}},
        {open_group(kDistant, true, false), {1, 8}},
        {open_group(kDistant, true, true), {8}},
    };
}

// ---------------------------------------------------------------------------
// Graphs 17-18 — peer participation: every member multicasts one-way sends
// (100-character payloads) as fast as the group delivers them, and we
// measure how long a multicast takes to become deliverable at all members,
// under the symmetric and the asymmetric ordering protocols.  Members are
// spread over Newcastle / London / Pisa; the LAN sweep reproduces the §5.2
// text.
//
// Expected shapes: WAN — symmetric roughly 2x the asymmetric throughput
// (the sequencer redirection costs a second WAN hop); LAN — both degrade
// with membership, asymmetric faster because the sequencer becomes a CPU
// bottleneck.

enum class Where : std::uint8_t { kLan, kGeo };

struct PeerResult {
    double mean_deliver_ms{0.0};
    double group_msgs_per_s{0.0};
    std::string metrics_json;
};

struct PeerOptions {
    Where where{Where::kGeo};
    OrderMode order{OrderMode::kTotalSymmetric};
    int members{3};
    int messages_per_member{40};
    int warmup_per_member{5};
    std::uint64_t seed{13};
};

class PeerBench {
public:
    static PeerResult run(const PeerOptions& options) {
        PeerBench bench(options);
        return bench.execute();
    }

private:
    explicit PeerBench(const PeerOptions& options)
        : options_(options),
          sites_(calibration::make_paper_topology()),
          network_(scheduler_, std::move(sites_.topology), options.seed) {}

    struct Member {
        std::size_t index{};
        std::unique_ptr<Orb> orb;
        std::unique_ptr<NewTopService> nso;
        PeerGroup group;
        int issued{0};
        std::vector<SimDuration> latencies;
        SimTime window_start{-1};
        SimTime window_end{0};
    };

    [[nodiscard]] SiteId site_of(int index) const {
        if (options_.where == Where::kLan) return sites_.newcastle;
        const SiteId spread[3] = {sites_.newcastle, sites_.london, sites_.pisa};
        return spread[index % 3];
    }

    struct PendingSample {
        std::size_t deliveries{0};
        SimTime issued_at{0};
    };

    void publish_next(Member& member) {
        // 100-character body, as in §5.2.
        std::string body(100, 'x');
        body[0] = static_cast<char>('A' + member.index);
        const std::uint64_t tag =
            member.index * 1'000'000 + static_cast<std::uint64_t>(member.issued);
        ++member.issued;
        Encoder e;
        e.put_u64(tag);
        e.put_string(body);
        pending_deliveries_[tag] = PendingSample{0, scheduler_.now()};
        member.group.publish(std::move(e).take());
    }

    void on_delivery(std::size_t at_member, const Bytes& payload) {
        Decoder d(payload);
        const std::uint64_t tag = d.get_u64();
        Member& sender = *members_[tag / 1'000'000];

        // §5.2 pacing: members "issue multicasts as frequently as possible".
        // A member fires its next multicast as soon as its previous one is
        // delivered back to itself — continuous pipelined traffic that
        // self-throttles under CPU and ordering load.
        if (at_member == sender.index &&
            sender.issued < options_.warmup_per_member + options_.messages_per_member) {
            publish_next(sender);
        }

        // Metric: time from issue until deliverable at *all* members.
        const auto it = pending_deliveries_.find(tag);
        if (it == pending_deliveries_.end()) return;
        if (++it->second.deliveries < members_.size()) return;
        const PendingSample sample = it->second;
        pending_deliveries_.erase(it);
        if (tag % 1'000'000 >= static_cast<std::uint64_t>(options_.warmup_per_member)) {
            sender.latencies.push_back(scheduler_.now() - sample.issued_at);
            sender.window_end = scheduler_.now();
            if (sender.window_start < 0) sender.window_start = sample.issued_at;
        }
    }

    PeerResult execute() {
        GroupConfig config;
        config.order = options_.order;
        config.liveness = LivenessMode::kLively;  // peer groups are lively (§3)

        for (int i = 0; i < options_.members; ++i) {
            auto member = std::make_unique<Member>();
            member->index = static_cast<std::size_t>(i);
            member->orb = std::make_unique<Orb>(network_, network_.add_node(site_of(i)));
            member->nso = std::make_unique<NewTopService>(*member->orb, directory_);
            Member* raw = member.get();
            member->group = member->nso->join_peer_group(
                "peer", config, [this, raw](const NewTopService::PeerMessage& m) {
                    on_delivery(raw->index, m.payload);
                });
            members_.push_back(std::move(member));
            scheduler_.run_until(scheduler_.now() + 500_ms);
        }

        for (auto& member : members_) publish_next(*member);
        const int total = options_.warmup_per_member + options_.messages_per_member;
        for (int guard = 0; guard < 600; ++guard) {
            scheduler_.run_until(scheduler_.now() + 1_s);
            bool all_done = pending_deliveries_.empty();
            for (const auto& member : members_) all_done &= member->issued >= total;
            if (all_done) break;
        }

        PeerResult result;
        std::vector<double> means;
        SimTime start = -1, end = 0;
        std::size_t measured = 0;
        for (const auto& member : members_) {
            if (member->latencies.empty()) continue;
            means.push_back(std::accumulate(member->latencies.begin(),
                                            member->latencies.end(), 0.0) /
                            static_cast<double>(member->latencies.size()));
            measured += member->latencies.size();
            if (start < 0 || (member->window_start >= 0 && member->window_start < start)) {
                start = member->window_start;
            }
            end = std::max(end, member->window_end);
        }
        if (!means.empty()) {
            result.mean_deliver_ms = to_ms(static_cast<SimDuration>(
                std::accumulate(means.begin(), means.end(), 0.0) /
                static_cast<double>(means.size())));
        }
        if (end > start && start >= 0) {
            result.group_msgs_per_s = static_cast<double>(measured) / to_seconds(end - start);
        }
        result.metrics_json = network_.metrics().to_json();
        return result;
    }

    PeerOptions options_;
    Scheduler scheduler_;
    calibration::PaperSites sites_;
    Network network_;
    Directory directory_;
    std::vector<std::unique_ptr<Member>> members_;
    std::map<std::uint64_t, PendingSample> pending_deliveries_;
};

// ---------------------------------------------------------------------------
// Recovery experiment — mean time to repair under crash/restart faults.
//
// Three actively-replicated RecoveryManager servers host a counter service
// while one closed-loop client keeps calling it.  Every cycle one replica
// (round-robin) is crashed and restarted after a fixed outage; the
// RecoveryManager rebuilds the process (fresh endpoint, directory eviction,
// rejoin, state transfer) and the first request executed by the recovered
// replica closes the crash -> repaired interval into the `recovery.mttr`
// histogram.  We report its percentiles.
//
//   LAN: replicas and client on the Newcastle LAN — MTTR is dominated by
//        the fixed outage plus failure detection.
//   WAN: replicas spread over Newcastle/London/Pisa — rejoin, flush and
//        state transfer all cross wide-area links, so repair stretches by
//        several round trips.

constexpr std::uint32_t kIncrement = 1;

/// Replicated application state: a counter whose snapshot is its value.
class CounterServant : public StatefulServant {
public:
    Bytes handle(std::uint32_t, const Bytes&) override {
        ++value_;
        return encode_to_bytes(value_);
    }

    [[nodiscard]] Bytes snapshot() const override { return encode_to_bytes(value_); }
    void restore(const Bytes& snapshot) override {
        value_ = decode_from_bytes<std::uint64_t>(snapshot);
    }

private:
    std::uint64_t value_{0};
};

struct MttrOptions {
    Setting setting{Setting::kLan};
    int replicas{3};
    int cycles{8};
    SimDuration outage{500_ms};     // crash -> restart begins
    SimDuration cycle_gap{8_s};     // crash -> next crash
    SimDuration client_pace{10_ms}; // completion -> next request
    std::uint64_t seed{1};
};

struct MttrResult {
    double mean_ms{0.0};
    double min_ms{0.0};
    double p90_ms{0.0};
    double max_ms{0.0};
    std::uint64_t recoveries{0};
    std::uint64_t completions{0};
    std::string metrics_json;
};

class MttrBench {
public:
    static MttrResult run(const MttrOptions& options) {
        MttrBench bench(options);
        return bench.execute();
    }

private:
    explicit MttrBench(const MttrOptions& options)
        : options_(options),
          sites_(calibration::make_paper_topology()),
          network_(scheduler_, std::move(sites_.topology), options.seed) {}

    [[nodiscard]] SiteId replica_site(int index) const {
        if (options_.setting == Setting::kLan) return sites_.newcastle;
        const SiteId spread[3] = {sites_.newcastle, sites_.london, sites_.pisa};
        return spread[index % 3];
    }

    [[nodiscard]] SiteId client_site() const {
        return options_.setting == Setting::kLan ? sites_.newcastle : sites_.london;
    }

    void issue_next() {
        proxy_.invoke(kIncrement, Bytes{}, InvocationMode::kWaitFirst,
                      [this](const GroupReply& reply) {
                          completions_ += reply.complete ? 1 : 0;
                          // Pace the loop instead of reissuing inline: while
                          // the binding is backed off, calls fail fast and an
                          // unpaced loop would spin the scheduler.
                          scheduler_.schedule_after(options_.client_pace,
                                                    [this] { issue_next(); });
                      });
    }

    MttrResult execute() {
        // Replicas, staggered so joins serialize deterministically.
        GroupConfig config;
        config.order = OrderMode::kTotalAsymmetric;
        config.liveness = LivenessMode::kLively;
        for (int i = 0; i < options_.replicas; ++i) {
            managers_.push_back(std::make_unique<RecoveryManager>(
                network_, directory_, replica_site(i),
                make_active_generation("counter", config,
                                       [] { return std::make_shared<CounterServant>(); })));
            scheduler_.run_until(scheduler_.now() + 300_ms);
        }
        scheduler_.run_until(scheduler_.now() + 2_s);

        client_orb_ = std::make_unique<Orb>(network_, network_.add_node(client_site()));
        client_nso_ = std::make_unique<NewTopService>(*client_orb_, directory_);
        proxy_ = client_nso_->bind("counter", BindOptions{.mode = BindMode::kOpen});
        scheduler_.run_until(scheduler_.now() + 1_s);
        issue_next();

        // Fault cycles: round-robin victim, fixed outage, generous gap so
        // each repair completes (and is measured) before the next fault.
        for (int cycle = 0; cycle < options_.cycles; ++cycle) {
            RecoveryManager& victim = *managers_[cycle % managers_.size()];
            victim.crash();
            victim.restart_after(options_.outage);
            scheduler_.run_until(scheduler_.now() + options_.cycle_gap);
        }
        scheduler_.run_until(scheduler_.now() + 5_s);

        MttrResult result;
        result.completions = completions_;
        if (const auto* mttr = network_.metrics().histogram("recovery.mttr")) {
            result.recoveries = mttr->count();
            result.mean_ms = to_ms(mttr->sum()) / static_cast<double>(mttr->count());
            result.min_ms = to_ms(mttr->min());
            result.p90_ms = to_ms(mttr->quantile(0.90));
            result.max_ms = to_ms(mttr->max());
        }
        result.metrics_json = network_.metrics().to_json();
        return result;
    }

    MttrOptions options_;
    Scheduler scheduler_;
    calibration::PaperSites sites_;
    Network network_;
    Directory directory_;
    std::vector<std::unique_ptr<RecoveryManager>> managers_;
    std::unique_ptr<Orb> client_orb_;
    std::unique_ptr<NewTopService> client_nso_;
    GroupProxy proxy_;
    std::uint64_t completions_{0};
};

// ---------------------------------------------------------------------------

/// True when `order(a, b)` holds for every pair of neighbours a, b.
bool strictly(const std::vector<double>& values, auto order) {
    return std::adjacent_find(values.begin(), values.end(), [&order](double a, double b) {
               return !order(a, b);
           }) == values.end();
}

std::string join(const std::vector<double>& values) {
    std::string out;
    for (const double value : values) out += std::to_string(value) + " ";
    return out + "\n";
}

}  // namespace

int main() {
    Artifact artifact("paper", 1);

    std::vector<double> corba_ms;
    for (const CorbaPath& path : kCorbaPaths) {
        calibration::PaperSites sites = calibration::make_paper_topology();
        const DirectResult result =
            run_direct(sites.*path.client, sites.*path.server, std::move(sites.topology));
        emit_metrics(result.metrics_json);
        artifact.row(path.name)
            .lower("timed_request_ms", result.latency_ms)
            .higher("req_per_s", result.throughput_rps);
        corba_ms.push_back(result.latency_ms);
    }
    artifact.check("table1.paths_ordered", strictly(corba_ms, std::greater<>()),
                   "latency (ms), longest path first: " + join(corba_ms));

    std::map<std::string, RequestReplyResult> results;  // by label
    for (const Sweep& sweep : request_reply_table()) {
        for (const int clients : sweep.clients) {
            RequestReplyOptions options = sweep.options;
            options.clients = clients;
            RequestReplyResult result = RequestReplyBench::run(options);
            emit_metrics(result.metrics_json);
            artifact.row(options.label())
                .lower("latency_ms", result.mean_latency_ms)
                .higher("req_per_s", result.throughput_rps)
                .lower("wire_msgs", result.wire_messages)
                .info("clients_finished", result.clients_finished);
            results.emplace(options.label(), std::move(result));
        }
    }
    const auto measured = [&results](RequestReplyOptions options,
                                     int clients) -> const RequestReplyResult& {
        options.clients = clients;
        return results.at(options.label());
    };

    std::vector<double> wan_rps;
    for (const int clients : kGraphClients) {
        wan_rps.push_back(
            measured(nonreplicated(Setting::kDistantClients), clients).throughput_rps);
    }
    artifact.check("nonreplicated.wan_throughput_grows", strictly(wan_rps, std::less<>()),
                   "distant-clients req/s over 1..20 clients: " + join(wan_rps));

    bool async_beats_plain = true;
    std::string latencies;
    for (const Setting setting : {Setting::kLan, Setting::kDistantClients}) {
        const double plain = measured(open_group(setting, false, false), 8).mean_latency_ms;
        const double async = measured(open_group(setting, true, true), 8).mean_latency_ms;
        async_beats_plain &= async < plain;
        latencies += std::string(setting_name(setting)) + " at 8 clients: restricted+async " +
                     std::to_string(async) + " ms, plain " + std::to_string(plain) + " ms\n";
    }
    artifact.check("optimizations.restricted_async_beats_plain", async_beats_plain, latencies);

    for (const Where where : {Where::kGeo, Where::kLan}) {
        for (const OrderMode order : {OrderMode::kTotalSymmetric, OrderMode::kTotalAsymmetric}) {
            for (int members = 2; members <= 10; members += 2) {
                PeerOptions options;
                options.where = where;
                options.order = order;
                options.members = members;
                const PeerResult result = PeerBench::run(options);
                emit_metrics(result.metrics_json);
                artifact
                    .row(std::string("peer_") + (where == Where::kLan ? "lan" : "geo-distributed") +
                         "_m" + std::to_string(members) + "_" + order_name(order) + "_seed" +
                         std::to_string(options.seed))
                    .lower("deliver_ms", result.mean_deliver_ms)
                    .higher("group_msg_per_s", result.group_msgs_per_s);
            }
        }
    }

    for (const Setting setting : {Setting::kLan, Setting::kGeo}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            MttrOptions options;
            options.setting = setting;
            options.seed = seed;
            const MttrResult result = MttrBench::run(options);
            emit_metrics(result.metrics_json);
            artifact
                .row(std::string("mttr_") + setting_name(setting) + "_r" +
                     std::to_string(options.replicas) + "_seed" + std::to_string(seed))
                .lower("mttr_mean_ms", result.mean_ms)
                .lower("mttr_min_ms", result.min_ms)
                .lower("mttr_p90_ms", result.p90_ms)
                .lower("mttr_max_ms", result.max_ms)
                .higher("recoveries", result.recoveries)
                .higher("completions", result.completions);
        }
    }

    artifact.write();
}
