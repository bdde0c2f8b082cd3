// replica_churn — group communication as a control plane.
//
// Three actively replicated counter replicas, each hosted by a
// RecoveryManager, on the LAN.  One open-loop client calls "increment" at a
// fixed rate while a fixed fault schedule runs, with fault times jittered
// from the seed:
//   * each replica in turn is crashed and restarted; the victim is the
//     client's current request manager while one is left to crash,
//   * one runtime reconfigure() switches asymmetric -> symmetric order,
//   * one window slows a replica's CPU 4x.
// Calls are timed from when they fell due, so calls due during an outage
// count their wait.  delivery = due -> executed at a majority of replicas;
// inv = due -> completion.  outage = fault -> first successful completion of a
// call due at or after it.  At the end every replica's counter must equal
// the acknowledged increments: no acknowledged write is lost.
#include <algorithm>
#include <array>

#include "common.hpp"
#include "net/calibration.hpp"
#include "newtop/recovery_manager.hpp"
#include "replication/recoverable.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr int kReplicas = 3;
constexpr int kMajority = 2;
constexpr SimDuration kCallInterval = 10_ms;
/// Five 3 s fault slots after a 1 s lead-in, then quiet load.
constexpr SimDuration kLoadLength = 18_s;
constexpr SimDuration kDrain = 5_s;
constexpr SimDuration kRestartDelay = 500_ms;
constexpr double kSlowdown = 4.0;
constexpr SimDuration kSlowWindow = 1500_ms;

/// Replicated state: a counter.  Every execution is noted by call index
/// (the call's argument).
class CounterServant : public StatefulServant {
public:
    CounterServant(Scheduler& scheduler, ExecutionLog& executions)
        : scheduler_(&scheduler), executions_(&executions) {}

    Bytes handle(std::uint32_t, const Bytes& args) override {
        executions_->note(decode_from_bytes<std::uint64_t>(args), scheduler_->now());
        return encode_to_bytes(++value_);
    }

    [[nodiscard]] Bytes snapshot() const override { return encode_to_bytes(value_); }
    void restore(const Bytes& snapshot) override {
        value_ = decode_from_bytes<std::uint64_t>(snapshot);
    }

    [[nodiscard]] std::uint64_t value() const { return value_; }

private:
    Scheduler* scheduler_;
    ExecutionLog* executions_;
    std::uint64_t value_{0};
};

class ReplicaChurn {
public:
    explicit ReplicaChurn(const WorkloadArgs& args)
        : args_(args), world_(calibration::make_lan_topology(), args.seed), rng_(args.seed) {}

    RunOutcome run() {
        const double setup_start = wall_seconds();
        std::unique_ptr<TraceRecorder> trace;
        if (args_.traced) trace = std::make_unique<TraceRecorder>(world_);
        setup();
        out_.setup_wall_s = wall_seconds() - setup_start;

        Window window(world_);
        const SimTime start = world_.scheduler.now();
        load_end_ = start + kLoadLength;
        schedule_faults(start);
        const auto phase = static_cast<SimDuration>(rng_.next_in(0, kCallInterval - 1));
        world_.scheduler.schedule_at(start + phase, [this] { tick(); });
        world_.stepper.run_until(load_end_);
        drain_calls(world_, calls_, load_end_ + kDrain);
        window.stop();

        evaluate();
        window.close(out_);
        if (trace != nullptr) out_.trace = std::make_unique<TraceRecorder::Result>(trace->finish());
        return std::move(out_);
    }

private:
    void setup() {
        GroupConfig config;
        config.order = OrderMode::kTotalAsymmetric;
        config.liveness = LivenessMode::kLively;
        config_ = config;
        for (int i = 0; i < kReplicas; ++i) {
            const auto index = static_cast<std::size_t>(i);
            servants_.emplace_back();
            managers_.push_back(std::make_unique<RecoveryManager>(
                world_.network, world_.directory, SiteId(0),
                make_active_generation("counter", config, [this, index] {
                    auto servant =
                        std::make_shared<CounterServant>(world_.scheduler, executions_);
                    servants_[index] = servant;
                    return servant;
                })));
            world_.stepper.run_for(300_ms);
        }
        world_.stepper.run_for(2_s);
        client_orb_ = std::make_unique<Orb>(world_.network, world_.network.add_node(SiteId(0)));
        client_ = std::make_unique<NewTopService>(*client_orb_, world_.directory);
        proxy_ = client_->bind("counter", BindOptions{.mode = BindMode::kOpen});
        world_.stepper.run_for(1_s);
        if (!proxy_.ready()) out_.fail("replica_churn: the binding did not become ready");
        const Directory::GroupInfo* info = world_.directory.find_group("counter");
        if (info == nullptr) {
            out_.fail("replica_churn: the counter group is not in the directory");
        } else {
            group_ = info->id;
        }
    }

    /// Fault times: one slot every 3 s after a 1 s lead-in, each jittered by
    /// up to 500 ms from the seed.
    void schedule_faults(SimTime start) {
        auto slot = [&](int k) {
            return start + 1_s + k * 3_s + static_cast<SimDuration>(rng_.next_in(0, 500'000));
        };
        for (int k = 0; k < kReplicas; ++k) at(slot(k), [this] { crash_next(); });
        at(slot(kReplicas), [this] {
            GroupConfig next = config_;
            next.order = OrderMode::kTotalSymmetric;
            for (const auto& manager : managers_) {
                if (manager->recovered()) {
                    manager->nso().reconfigure(group_, next);
                    return;
                }
            }
        });
        const auto slow = static_cast<std::size_t>(rng_.next_in(0, kReplicas - 1));
        const SimTime slow_at = slot(kReplicas + 1);
        at(slow_at, [this, slow] {
            world_.network.set_cpu_slowdown(managers_[slow]->node_id(), kSlowdown);
        });
        world_.scheduler.schedule_at(slow_at + kSlowWindow, [this, slow] {
            world_.network.set_cpu_slowdown(managers_[slow]->node_id(), 1.0);
        });
    }

    /// Crash the replica that is the client's request manager, so every
    /// crash forces a fail-over; once it has had its turn, the next replica
    /// that has not.  Each replica is crashed once and restarted.
    void crash_next() {
        std::size_t victim = managers_.size();
        for (std::size_t i = 0; i < managers_.size(); ++i) {
            if (crashed_[i]) continue;
            if (victim == managers_.size()) victim = i;
            if (proxy_.manager() == managers_[i]->endpoint()) victim = i;
        }
        if (victim == managers_.size()) return;
        crashed_[victim] = true;
        managers_[victim]->crash();
        managers_[victim]->restart_after(kRestartDelay);
    }

    /// Schedule fault `fn` at `when` and remember the fault time.
    void at(SimTime when, std::function<void()> fn) {
        faults_.push_back(when);
        world_.scheduler.schedule_at(when, std::move(fn));
    }

    void tick() {
        const SimTime now = world_.scheduler.now();
        if (now >= load_end_) return;
        const std::uint64_t index = calls_.size();
        calls_.push_back(Call{now});
        executions_.add_call();
        const double start = wall_seconds();
        proxy_.invoke(1, encode_to_bytes(index), InvocationMode::kWaitFirst,
                      [this, index](const GroupReply& reply) {
                          Call& call = calls_[index];
                          call.done = true;
                          call.completed = world_.scheduler.now();
                          call.ok = reply.complete && reply.first_value() != nullptr;
                      });
        invoke_ns_.push_back((wall_seconds() - start) * 1e9);
        world_.scheduler.schedule_at(now + kCallInterval, [this] { tick(); });
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
            if (const SimTime majority = executions_.nth(i, kMajority); majority >= 0) {
                delivery.push_back(majority - call.due);
            }
        }
        out_.failed = out_.attempted - out_.completed;
        if (out_.failed != 0) out_.fail("replica_churn: a call failed or never completed");

        // No acknowledged write lost: every live replica holds exactly the
        // acknowledged increments.
        for (std::size_t i = 0; i < managers_.size(); ++i) {
            if (!managers_[i]->recovered()) {
                out_.fail("replica_churn: a replica did not recover");
            } else if (servants_[i]->value() != out_.completed) {
                out_.fail("replica_churn: replica " + std::to_string(i) + " counter " +
                          std::to_string(servants_[i]->value()) + " != acknowledged " +
                          std::to_string(out_.completed));
            }
            digest = mix(digest, servants_[i]->value());
        }

        double outage_max_ms = 0.0;
        for (const SimTime fault : faults_) {
            SimTime first = -1;
            for (const Call& call : calls_) {
                if (call.ok && call.due >= fault && (first < 0 || call.completed < first)) {
                    first = call.completed;
                }
            }
            if (first >= 0) outage_max_ms = std::max(outage_max_ms, to_ms(first - fault));
        }

        const LatencySummary inv_summary = summarize_us(std::move(inv));
        const LatencySummary delivery_summary = summarize_us(std::move(delivery));
        out_.sim["inv_p50_ms"] = {inv_summary.p50_ms, "ms", inv_summary.samples};
        out_.sim["inv_p99_ms"] = {inv_summary.p99_ms, "ms", inv_summary.samples};
        out_.sim["delivery_p50_ms"] = {delivery_summary.p50_ms, "ms", delivery_summary.samples};
        out_.sim["delivery_p99_ms"] = {delivery_summary.p99_ms, "ms", delivery_summary.samples};
        out_.sim["workload.outage_max_ms"] = {outage_max_ms, "ms", faults_.size()};
        out_.call_ns["invocation.invoke_call_ns"] = invoke_ns_;
        out_.digest = digest;
    }

    WorkloadArgs args_;
    World world_;
    Rng rng_;
    RunOutcome out_;
    GroupConfig config_;
    GroupId group_;
    std::vector<std::unique_ptr<RecoveryManager>> managers_;
    std::vector<std::shared_ptr<CounterServant>> servants_;
    std::unique_ptr<Orb> client_orb_;
    std::unique_ptr<NewTopService> client_;
    GroupProxy proxy_;
    std::vector<Call> calls_;
    ExecutionLog executions_;
    std::vector<SimTime> faults_;
    std::array<bool, kReplicas> crashed_{};
    std::vector<double> invoke_ns_;
    SimTime load_end_{0};
};

}  // namespace

RunOutcome run_replica_churn(const WorkloadArgs& args) { return ReplicaChurn(args).run(); }

}  // namespace perfbench
