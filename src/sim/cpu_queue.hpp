// Single-server CPU model.
//
// Each simulated host has one CPU on which all local work — marshalling,
// protocol processing, servant execution — is serialized.  This queueing is
// what makes throughput saturate: on a low-latency LAN a single client can
// keep a server's CPU permanently busy, exactly the behaviour the paper
// reports (§5.1.1).
#pragma once

#include <utility>

#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "util/check.hpp"
#include "util/time.hpp"

namespace newtop {

class CpuQueue {
public:
    explicit CpuQueue(Scheduler& scheduler)
        : scheduler_(&scheduler), lane_(scheduler.open_lane()) {}

    // The queue owns its scheduler lane.
    CpuQueue(const CpuQueue&) = delete;
    CpuQueue& operator=(const CpuQueue&) = delete;

    /// Attach the world's metrics registry (done by Network::add_node).
    /// Each submitted task then counts toward cpu.tasks / cpu.busy_us and
    /// its queueing delay feeds the cpu.queue_wait_us histogram.
    void attach_metrics(obs::MetricsRegistry& metrics);

    /// Run `fn` after `cost` microseconds of CPU time, queued FIFO behind
    /// any work already submitted.  Zero-cost work still round-trips
    /// through the scheduler so that handlers never run re-entrantly.
    /// Completion times never decrease, so the work queues on the CPU's
    /// scheduler lane.  The crash guard and `fn` travel as one closure, so
    /// the work is type-erased once and, when it fits Task's buffer, never
    /// allocates.
    template <typename F>
    void execute(SimDuration cost, F&& fn) {
        if constexpr (Task::kNullable<std::remove_cvref_t<F>>) {
            NEWTOP_EXPECTS(static_cast<bool>(fn), "CPU work must be callable");
        }
        if (!admit(cost)) return;
        scheduler_->schedule_in(lane_, busy_until_,
                                [this, epoch = epoch_, fn = std::forward<F>(fn)]() mutable {
                                    if (epoch == epoch_) fn();
                                });
    }

    /// Scale the cost of every subsequently submitted task by `factor`
    /// (gray-failure injection: a slow-but-alive host).  1.0 restores
    /// nominal speed; already-queued work keeps its original cost.
    void set_slowdown(double factor);
    [[nodiscard]] double slowdown() const { return slowdown_; }

    /// Time at which currently queued work completes.
    [[nodiscard]] SimTime busy_until() const { return busy_until_; }

    /// Microseconds of accepted-but-unfinished work as seen at time `at`
    /// (0 when idle or dead) — the instantaneous queue depth the
    /// cpu.backlog_us gauge samples.
    [[nodiscard]] SimDuration backlog(SimTime at) const {
        return (dead_ || busy_until_ <= at) ? 0 : busy_until_ - at;
    }

    /// Total CPU time consumed so far (for utilisation reporting).
    [[nodiscard]] SimDuration consumed() const { return consumed_; }

    /// Drop all queued work (used when a node crashes).  Already-scheduled
    /// completions still run as events, suppressed via the epoch counter,
    /// on the lane they were queued on; new work starts a fresh lane, since
    /// it may complete before them.
    void reset();

    /// Permanently stop the CPU: queued work is dropped and all future
    /// execute() calls become no-ops.  Models crash-stop — a dead process
    /// runs nothing (until the host is explicitly restarted, see revive()).
    void kill();

    /// Bring a killed CPU back to life with an empty queue, as if the host
    /// had been power-cycled: the epoch bump from the embedded reset()
    /// suppresses any completion that was in flight when the CPU died, and
    /// new execute() calls run normally again.  Restores the accounting to
    /// a fresh-boot state.
    void revive();

private:
    /// Accounts a task of `cost` and extends busy_until() past it; false
    /// (and nothing queued) when the CPU is dead.
    bool admit(SimDuration cost);

    Scheduler* scheduler_;
    LaneId lane_;
    obs::Counter tasks_;
    obs::Counter busy_us_;
    obs::Histogram queue_wait_us_;
    SimTime busy_until_{0};
    SimDuration consumed_{0};
    double slowdown_{1.0};
    std::uint64_t epoch_{0};
    bool dead_{false};
};

}  // namespace newtop
