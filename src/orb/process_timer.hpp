// ProcessTimer: a protocol timer owned by the state it serves.
//
// Process code (GCS endpoint, invocation layer, replicas) keeps each timer
// as a member of the object its callback works on.  The timer is cancelled
// when re-armed, by cancel() and when its owner is destroyed, so a callback
// never outlives its state.  It is armed through the owning process's Orb
// and its callback does not run once that process is defunct: the
// crash-stop check lives here, not in each callback.  armed() asks the
// scheduler, so it is false inside the callback and after it.
#pragma once

#include <algorithm>
#include <utility>

#include "orb/orb.hpp"

namespace newtop {

class ProcessTimer {
public:
    ProcessTimer() = default;
    ~ProcessTimer() { cancel(); }

    ProcessTimer(ProcessTimer&& other) noexcept
        : scheduler_(other.scheduler_), id_(std::exchange(other.id_, 0)) {}

    ProcessTimer& operator=(ProcessTimer&& other) noexcept {
        if (this != &other) {
            cancel();
            scheduler_ = other.scheduler_;
            id_ = std::exchange(other.id_, 0);
        }
        return *this;
    }

    /// Run `fn` at `at` (clamped to now) unless `orb`'s process is defunct
    /// by then, replacing the pending run if there is one.  The check reads
    /// the node, so it stays sound if the ORB is destroyed first.
    template <typename F>
    void arm_at(Orb& orb, SimTime at, F&& fn) {
        cancel();
        scheduler_ = &orb.scheduler();
        id_ = scheduler_->schedule_at(
            at, [node = &orb.network().node(orb.node_id()), incarnation = orb.incarnation(),
                 fn = std::forward<F>(fn)]() mutable {
                if (!node->crashed() && node->incarnation() == incarnation) fn();
            });
    }

    /// Run `fn` `delay` from now (negative delays run "now"); see arm_at.
    template <typename F>
    void arm(Orb& orb, SimDuration delay, F&& fn) {
        arm_at(orb, orb.scheduler().now() + std::max<SimDuration>(delay, 0),
               std::forward<F>(fn));
    }

    /// Drop the pending run, if any.
    void cancel() {
        if (id_ != 0) scheduler_->cancel(std::exchange(id_, 0));
    }

    [[nodiscard]] bool armed() const { return id_ != 0 && scheduler_->is_pending(id_); }

private:
    Scheduler* scheduler_{nullptr};  // not the Orb: an owner may outlive it
    TimerId id_{0};
};

}  // namespace newtop
