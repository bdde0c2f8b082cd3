// peer_flood — the data plane under an open-loop publish ladder.
//
// A LAN peer group of three members (lively liveness, asymmetric order,
// default batching window).  Two members publish 32-byte payloads through
// PeerGroup::publish on a fixed schedule, stepping through a ladder of
// offered rates that spans the batching knee; a quiet gap separates steps.
// Every message is timed from when it was due:
//   delivery = due -> delivered at every member,
//   inv      = due -> delivered back at its publisher (the issuer's view of
//              completion for a one-way group invocation).
// Capacity is the highest step whose delivery p99 stays within a fixed
// limit without a growing backlog.
#include <algorithm>
#include <array>

#include "common.hpp"
#include "net/calibration.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr int kMembers = 3;
constexpr int kPublishers = 2;
constexpr std::size_t kPayloadBytes = 32;
/// Aggregate offered rates (both publishers together), msgs per sim-second.
constexpr std::array<int, 8> kLadder = {2000, 4000, 8000, 10000, 12000, 14000, 16000, 20000};
/// The step whose latencies are the workload's delivery_* and inv_* numbers.
constexpr int kNominalRate = 8000;
constexpr SimDuration kStepLength = 500_ms;
constexpr SimDuration kStepGap = 300_ms;
constexpr SimDuration kDrain = 2_s;
/// Delivery-p99 limit a step must meet to count towards capacity.
constexpr SimDuration kP99Limit = 50_ms;

struct Message {
    SimTime due{0};
    int step{0};
    int publisher{0};
    int deliveries{0};
    SimTime all_delivered{0};
    SimTime self_delivered{0};
};

struct Member {
    std::unique_ptr<Orb> orb;
    std::unique_ptr<NewTopService> nso;
    PeerGroup group;
    std::uint64_t digest{obs::kFnvOffsetBasis};
    std::uint64_t delivered{0};
};

class PeerFlood {
public:
    explicit PeerFlood(const WorkloadArgs& args)
        : args_(args), world_(calibration::make_lan_topology(), args.seed), rng_(args.seed) {}

    RunOutcome run() {
        const double setup_start = wall_seconds();
        std::unique_ptr<TraceRecorder> trace;
        if (args_.traced) trace = std::make_unique<TraceRecorder>(world_);
        setup();
        out_.setup_wall_s = wall_seconds() - setup_start;

        Window window(world_);
        SimTime step_start = world_.scheduler.now();
        for (std::size_t s = 0; s < kLadder.size(); ++s) {
            schedule_step(static_cast<int>(s), step_start);
            world_.stepper.run_until(step_start + kStepLength / 2);
            mid_backlog_[s] = backlog();
            world_.stepper.run_until(step_start + kStepLength);
            end_backlog_[s] = backlog();
            step_start += kStepLength + kStepGap;
            world_.stepper.run_until(step_start);
        }
        world_.stepper.run_for(kDrain);
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
        for (int i = 0; i < kMembers; ++i) {
            auto member = std::make_unique<Member>();
            member->orb = std::make_unique<Orb>(world_.network,
                                                world_.network.add_node(SiteId(0)));
            member->nso = std::make_unique<NewTopService>(*member->orb, world_.directory);
            Member* self = member.get();
            member->group = member->nso->join_peer_group(
                "flood", config, [this, self, i](const NewTopService::PeerMessage& msg) {
                    on_deliver(*self, i, msg);
                });
            members_.push_back(std::move(member));
            world_.stepper.run_for(300_ms);
        }
        world_.stepper.run_for(1_s);
        for (const auto& member : members_) {
            const View* view = member->group.view();
            if (view == nullptr || view->members.size() != kMembers) {
                out_.fail("peer_flood: group did not form a 3-member view");
            }
        }
    }

    /// One publisher's schedule within one ladder step.
    struct Generator {
        int step{0};
        int publisher{0};  // member index; member 0 sequences and never publishes
        SimTime start{0};
        double offset_us{0.0};
        double interval_us{0.0};
        std::size_t next{0};
        std::size_t count{0};

        [[nodiscard]] SimTime due(std::size_t k) const {
            return start + static_cast<SimTime>(offset_us + static_cast<double>(k) * interval_us);
        }
    };

    void schedule_step(int step, SimTime start) {
        // Each publisher carries half the offered rate; its first message is
        // offset by a seeded fraction of its interval.  One pending event per
        // publisher: each publish schedules the next.
        const double interval_us = 1e6 * kPublishers / kLadder[static_cast<std::size_t>(step)];
        const auto count =
            static_cast<std::size_t>(static_cast<double>(kStepLength) / interval_us);
        for (int p = 0; p < kPublishers; ++p) {
            auto gen = std::make_shared<Generator>(
                Generator{step, p + 1, start, rng_.next_double() * interval_us, interval_us, 0,
                          count});
            world_.scheduler.schedule_at(gen->due(0), [this, gen] { publish(gen); });
        }
    }

    void publish(const std::shared_ptr<Generator>& gen) {
        const std::size_t id = messages_.size();
        messages_.push_back(Message{gen->due(gen->next), gen->step, gen->publisher});
        Bytes payload(kPayloadBytes);
        for (std::size_t b = 0; b < 8; ++b) payload[b] = static_cast<std::uint8_t>(id >> (8 * b));
        for (std::size_t b = 8; b < kPayloadBytes; ++b) {
            payload[b] = static_cast<std::uint8_t>(rng_.next_u64());
        }
        members_[static_cast<std::size_t>(gen->publisher)]->group.publish(std::move(payload));
        if (++gen->next < gen->count) {
            world_.scheduler.schedule_at(gen->due(gen->next), [this, gen] { publish(gen); });
        }
    }

    void on_deliver(Member& member, int index, const NewTopService::PeerMessage& msg) {
        std::uint64_t id = 0;
        for (std::size_t b = 0; b < 8 && b < msg.payload.size(); ++b) {
            id |= static_cast<std::uint64_t>(msg.payload[b]) << (8 * b);
        }
        member.digest = mix(member.digest, id);
        ++member.delivered;
        if (id >= messages_.size()) return;
        Message& m = messages_[id];
        const SimTime now = world_.scheduler.now();
        if (++m.deliveries == kMembers) {
            m.all_delivered = now;
            ++fully_delivered_;
        }
        if (index == m.publisher) m.self_delivered = now;
    }

    /// Published (a message is published exactly when due) but not yet
    /// delivered at every member.
    [[nodiscard]] std::uint64_t backlog() const { return messages_.size() - fully_delivered_; }

    void evaluate() {
        out_.attempted = messages_.size();
        out_.completed = fully_delivered_;
        out_.failed = out_.attempted - out_.completed;
        if (out_.failed != 0) {
            out_.fail("peer_flood: a published message was not delivered everywhere");
        }
        for (const auto& member : members_) {
            if (member->digest != members_.front()->digest ||
                member->delivered != members_.front()->delivered) {
                out_.fail("peer_flood: members delivered different sequences");
            }
        }

        std::vector<std::vector<SimDuration>> step_latency(kLadder.size());
        std::vector<SimDuration> self_latency;
        for (const Message& m : messages_) {
            if (m.deliveries != kMembers) continue;
            step_latency[static_cast<std::size_t>(m.step)].push_back(m.all_delivered - m.due);
            if (kLadder[static_cast<std::size_t>(m.step)] == kNominalRate) {
                self_latency.push_back(m.self_delivered - m.due);
            }
        }
        double capacity = 0.0;
        std::uint64_t digest = members_.front()->digest;
        for (std::size_t s = 0; s < kLadder.size(); ++s) {
            const LatencySummary step = summarize_us(step_latency[s]);
            // Growing: the second half of the step added more than a tenth
            // of the mid-step backlog (and more than one window's worth).
            const std::uint64_t slack = std::max<std::uint64_t>(32, mid_backlog_[s] / 10);
            const bool growing = end_backlog_[s] > mid_backlog_[s] + slack;
            if (step.p99_ms <= to_ms(kP99Limit) && !growing) {
                capacity = std::max(capacity, static_cast<double>(kLadder[s]));
            }
            const std::string prefix = "workload.step_" + std::to_string(kLadder[s]);
            out_.sim[prefix + "_p99_ms"] = {step.p99_ms, "ms", step.samples};
            out_.sim[prefix + "_p50_ms"] = {step.p50_ms, "ms", step.samples};
            if (kLadder[s] == kNominalRate) {
                out_.sim["delivery_p50_ms"] = {step.p50_ms, "ms", step.samples};
                out_.sim["delivery_p99_ms"] = {step.p99_ms, "ms", step.samples};
            }
            digest = mix(digest, static_cast<std::uint64_t>(step.p99_ms * 1000.0));
        }
        const LatencySummary self = summarize_us(std::move(self_latency));
        out_.sim["inv_p50_ms"] = {self.p50_ms, "ms", self.samples};
        out_.sim["inv_p99_ms"] = {self.p99_ms, "ms", self.samples};
        out_.sim["workload.flood_capacity_msgs_s"] = {capacity, "1/s", kLadder.size()};
        out_.digest = digest;
    }

    WorkloadArgs args_;
    World world_;
    Rng rng_;
    RunOutcome out_;
    std::vector<std::unique_ptr<Member>> members_;
    std::vector<Message> messages_;
    std::uint64_t fully_delivered_{0};
    std::array<std::uint64_t, kLadder.size()> mid_backlog_{};
    std::array<std::uint64_t, kLadder.size()> end_backlog_{};
};

}  // namespace

RunOutcome run_peer_flood(const WorkloadArgs& args) { return PeerFlood(args).run(); }

}  // namespace perfbench
