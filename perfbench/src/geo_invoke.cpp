// geo_invoke — the paper's setting (iii): replicas and clients spread over
// Newcastle, London and Pisa.
//
// Three replicas serve on the default GroupConfig (symmetric total order,
// event-driven liveness).  Four closed-loop clients with a 20 ms think time
// alternate open and closed bindings; the invocation mode rotates over the
// clients through wait-first, wait-majority and wait-all (each client keeps
// its mode).  Each call carries a fresh argument and every replica answers
// f(argument), so a reply that is incomplete, raised an exception or does
// not decode to the expected value is a failure.  A client paces its next
// call after a failure and every failure counts against the attempts.
//   inv      = issue -> completion handler,
//   delivery = issue -> executed at every replica.
// Client sites are fixed (Newcastle, London, Pisa, Newcastle) so that seeds
// differ in network jitter and timing, not in the shape of the deployment.
#include <algorithm>
#include <array>

#include "common.hpp"
#include "net/calibration.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr int kReplicas = 3;
constexpr int kClients = 4;
constexpr SimDuration kMeasured = 20_s;
constexpr SimDuration kDrain = 5_s;
/// Client think time between a successful reply and the next call.  Without
/// it the wait-first and wait-majority clients outrun the slowest replica,
/// whose backlog then grows without bound (see perfbench/README.md).
constexpr SimDuration kThinkTime = 20_ms;
/// Pause before the next call after a failed or incomplete reply.
constexpr SimDuration kFailurePace = 10_ms;
constexpr std::array<InvocationMode, 3> kModes = {
    InvocationMode::kWaitFirst, InvocationMode::kWaitMajority, InvocationMode::kWaitAll};

std::uint64_t expected_value(std::uint64_t argument) {
    return argument * 0x9E3779B97F4A7C15ULL + 17;
}

/// Stateless replica servant: answers f(argument) and notes when it ran.
class EchoServant : public GroupServant {
public:
    EchoServant(Scheduler& scheduler, ExecutionLog& executions)
        : scheduler_(&scheduler), executions_(&executions) {}

    Bytes handle(std::uint32_t, const Bytes& args) override {
        const auto argument = decode_from_bytes<std::uint64_t>(args);
        executions_->note(argument, scheduler_->now());
        return encode_to_bytes(expected_value(argument));
    }

private:
    Scheduler* scheduler_;
    ExecutionLog* executions_;
};

struct Client {
    std::unique_ptr<Orb> orb;
    std::unique_ptr<NewTopService> nso;
    GroupProxy proxy;
    int index{0};
};

class GeoInvoke {
public:
    explicit GeoInvoke(const WorkloadArgs& args)
        : args_(args), sites_(calibration::make_paper_topology()),
          world_(sites_.topology, args.seed), rng_(args.seed) {}

    RunOutcome run() {
        const double setup_start = wall_seconds();
        std::unique_ptr<TraceRecorder> trace;
        if (args_.traced) trace = std::make_unique<TraceRecorder>(world_);
        setup();
        out_.setup_wall_s = wall_seconds() - setup_start;

        Window window(world_);
        window_end_ = world_.scheduler.now() + kMeasured;
        // Each client's first call starts after a seeded offset of up to 5 ms.
        for (auto& client : clients_) {
            Client* c = client.get();
            world_.scheduler.schedule_after(static_cast<SimDuration>(rng_.next_in(0, 5'000)),
                                            [this, c] { issue(*c); });
        }
        world_.stepper.run_until(window_end_);
        drain_calls(world_, calls_, window_end_ + kDrain);
        window.stop();

        evaluate();
        window.close(out_);
        if (trace != nullptr) out_.trace = std::make_unique<TraceRecorder::Result>(trace->finish());
        return std::move(out_);
    }

private:
    void setup() {
        const std::array<SiteId, 3> sites = {sites_.newcastle, sites_.london, sites_.pisa};
        for (int i = 0; i < kReplicas; ++i) {
            replica_orbs_.push_back(std::make_unique<Orb>(
                world_.network, world_.network.add_node(sites[static_cast<std::size_t>(i)])));
            replicas_.push_back(
                std::make_unique<NewTopService>(*replica_orbs_.back(), world_.directory));
            replicas_.back()->serve("svc", GroupConfig{},
                                    std::make_shared<EchoServant>(world_.scheduler, executions_));
            world_.stepper.run_for(300_ms);
        }
        for (int i = 0; i < kClients; ++i) {
            auto client = std::make_unique<Client>();
            client->index = i;
            client->orb = std::make_unique<Orb>(
                world_.network,
                world_.network.add_node(sites[static_cast<std::size_t>(i) % 3]));
            client->nso = std::make_unique<NewTopService>(*client->orb, world_.directory);
            BindOptions bind;
            bind.mode = i % 2 == 0 ? BindMode::kOpen : BindMode::kClosed;
            client->proxy = client->nso->bind("svc", bind);
            clients_.push_back(std::move(client));
            world_.stepper.run_for(500_ms);
        }
        // Bindings settle: poll until every proxy is ready, for up to 5 s.
        auto all_ready = [this] {
            return std::all_of(clients_.begin(), clients_.end(),
                               [](const auto& c) { return c->proxy.ready(); });
        };
        for (int i = 0; i < 50 && !all_ready(); ++i) world_.stepper.run_for(100_ms);
        world_.stepper.run_for(1_s);
        if (!all_ready()) out_.fail("geo_invoke: a binding did not become ready");
    }

    void issue(Client& client) {
        if (world_.scheduler.now() >= window_end_) return;
        const std::uint64_t argument = calls_.size();
        calls_.push_back(Call{world_.scheduler.now()});
        executions_.add_call();
        const InvocationMode mode = kModes[static_cast<std::size_t>(client.index) % kModes.size()];
        Client* c = &client;
        const double start = wall_seconds();
        client.proxy.invoke(1, encode_to_bytes(argument), mode,
                            [this, c, argument](const GroupReply& reply) {
                                on_reply(*c, argument, reply);
                            });
        invoke_ns_.push_back((wall_seconds() - start) * 1e9);
    }

    void on_reply(Client& client, std::uint64_t argument, const GroupReply& reply) {
        Call& call = calls_[argument];
        call.done = true;
        call.completed = world_.scheduler.now();
        call.ok = reply.complete && !reply.replies.empty();
        for (const ReplyEntry& entry : reply.replies) {
            try {
                call.ok = call.ok && entry.ok &&
                          decode_from_bytes<std::uint64_t>(entry.value) == expected_value(argument);
            } catch (const std::exception&) {
                call.ok = false;
            }
        }
        Client* c = &client;
        world_.scheduler.schedule_after(call.ok ? kThinkTime : kFailurePace,
                                        [this, c] { issue(*c); });
    }

    void evaluate() {
        out_.attempted = calls_.size();
        std::vector<SimDuration> inv;
        std::vector<SimDuration> delivery;
        std::uint64_t digest = obs::kFnvOffsetBasis;
        for (std::size_t i = 0; i < calls_.size(); ++i) {
            const Call& call = calls_[i];
            digest = mix(digest, static_cast<std::uint64_t>(call.completed));
            if (!call.ok) continue;
            ++out_.completed;
            inv.push_back(call.completed - call.due);
            if (const SimTime all = executions_.nth(i, kReplicas); all >= 0) {
                delivery.push_back(all - call.due);
            }
        }
        out_.failed = out_.attempted - out_.completed;
        if (out_.attempted == 0) out_.fail("geo_invoke: no call was issued");
        if (out_.failed != 0) out_.fail("geo_invoke: a reply was incomplete or did not decode");

        const LatencySummary inv_summary = summarize_us(std::move(inv));
        const LatencySummary delivery_summary = summarize_us(std::move(delivery));
        out_.sim["inv_p50_ms"] = {inv_summary.p50_ms, "ms", inv_summary.samples};
        out_.sim["inv_p99_ms"] = {inv_summary.p99_ms, "ms", inv_summary.samples};
        out_.sim["delivery_p50_ms"] = {delivery_summary.p50_ms, "ms", delivery_summary.samples};
        out_.sim["delivery_p99_ms"] = {delivery_summary.p99_ms, "ms", delivery_summary.samples};
        out_.sim["workload.inv_rps"] = {
            static_cast<double>(out_.completed) / to_seconds(kMeasured), "1/s", out_.completed};
        out_.call_ns["invocation.invoke_call_ns"] = invoke_ns_;
        out_.digest = digest;
    }

    WorkloadArgs args_;
    calibration::PaperSites sites_;
    World world_;
    Rng rng_;
    RunOutcome out_;
    std::vector<std::unique_ptr<Orb>> replica_orbs_;
    std::vector<std::unique_ptr<NewTopService>> replicas_;
    std::vector<std::unique_ptr<Client>> clients_;
    std::vector<Call> calls_;
    ExecutionLog executions_;
    std::vector<double> invoke_ns_;
    SimTime window_end_{0};
};

}  // namespace

RunOutcome run_geo_invoke(const WorkloadArgs& args) { return GeoInvoke(args).run(); }

}  // namespace perfbench
