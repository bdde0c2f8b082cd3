#include "sim/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace newtop {

TimerId Scheduler::schedule_at(SimTime at, std::function<void()> fn) {
    NEWTOP_EXPECTS(fn != nullptr, "scheduled function must be callable");
    std::uint32_t slot = 0;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    queue_.push_back(Event{std::max(at, now_), next_seq_++, slot, std::move(fn)});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
    // Generation in the high half, slot + 1 in the low half: never 0.
    return (TimerId{slots_[slot].generation} << 32) | (TimerId{slot} + 1);
}

TimerId Scheduler::schedule_after(SimDuration delay, std::function<void()> fn) {
    return schedule_at(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
}

void Scheduler::cancel(TimerId id) {
    const TimerId index = id & 0xffff'ffffU;
    if (index == 0 || index > slots_.size()) return;
    Slot& slot = slots_[index - 1];
    if (slot.generation != (id >> 32) || slot.cancelled) return;  // fired or cancelled
    slot.cancelled = true;
    ++cancelled_;
}

bool Scheduler::pop_next(Event& out, SimTime deadline) {
    while (!queue_.empty() && queue_.front().at <= deadline) {
        std::pop_heap(queue_.begin(), queue_.end(), Later{});
        out = std::move(queue_.back());
        queue_.pop_back();
        Slot& slot = slots_[out.slot];
        const bool cancelled = slot.cancelled;
        ++slot.generation;
        slot.cancelled = false;
        free_slots_.push_back(out.slot);
        if (!cancelled) return true;
        --cancelled_;
    }
    return false;
}

bool Scheduler::step() {
    Event ev;
    if (!pop_next(ev, std::numeric_limits<SimTime>::max())) return false;
    now_ = ev.at;
    ev.fn();
    return true;
}

std::size_t Scheduler::run(std::size_t limit) {
    std::size_t n = 0;
    while (n < limit && step()) ++n;
    return n;
}

void Scheduler::run_until(SimTime deadline) {
    Event ev;
    while (pop_next(ev, deadline)) {
        now_ = ev.at;
        ev.fn();
    }
    now_ = std::max(now_, deadline);
}

}  // namespace newtop
