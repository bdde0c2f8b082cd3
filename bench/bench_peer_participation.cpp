// Graphs 17-18 — peer participation: every member multicasts one-way sends
// (100-character payloads) as fast as the group delivers them, and we
// measure how long a multicast takes to become deliverable at all members,
// under the symmetric and the asymmetric ordering protocols.
//
//   Graphs 17-18: members spread over Newcastle / London / Pisa.
//   The LAN sweep reproduces the §5.2 textual observations: performance
//   degrades as membership grows, much faster for the asymmetric protocol
//   because the sequencer becomes a CPU bottleneck.
//
// Expected shapes: WAN — symmetric roughly 2x the asymmetric throughput
// (the sequencer redirection costs a second WAN hop); LAN — both degrade
// with membership, asymmetric faster.
#include "harness.hpp"

#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "net/calibration.hpp"
#include "newtop/newtop_service.hpp"

namespace {

using namespace newtop;
using namespace newtop::sim_literals;

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

void report(benchmark::State& state, const PeerResult& result) {
    state.counters["deliver_ms"] = result.mean_deliver_ms;
    state.counters["group_msg_per_s"] = result.group_msgs_per_s;
    bench::emit_metrics(result.metrics_json);
}

#define NEWTOP_PEER_BENCH(name, bench_where, bench_order)                      \
    void name(benchmark::State& state) {                                      \
        for (auto _ : state) {                                                 \
            PeerOptions options;                                               \
            options.where = bench_where;                                       \
            options.order = bench_order;                                       \
            options.members = static_cast<int>(state.range(0));                \
            report(state, PeerBench::run(options));                            \
        }                                                                      \
    }                                                                          \
    BENCHMARK(name)->DenseRange(2, 10, 2)->Iterations(1)->Unit(               \
        benchmark::kMillisecond)

NEWTOP_PEER_BENCH(BM_Graphs17and18_Peer_Geo_Symmetric, Where::kGeo,
                  OrderMode::kTotalSymmetric);
NEWTOP_PEER_BENCH(BM_Graphs17and18_Peer_Geo_Asymmetric, Where::kGeo,
                  OrderMode::kTotalAsymmetric);
NEWTOP_PEER_BENCH(BM_Sec52Text_Peer_Lan_Symmetric, Where::kLan,
                  OrderMode::kTotalSymmetric);
NEWTOP_PEER_BENCH(BM_Sec52Text_Peer_Lan_Asymmetric, Where::kLan,
                  OrderMode::kTotalAsymmetric);

}  // namespace

BENCHMARK_MAIN();
