#include "sim/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace newtop {

TimerId Scheduler::schedule_at(SimTime at, Task fn) {
    NEWTOP_EXPECTS(static_cast<bool>(fn), "scheduled function must be callable");
    std::uint32_t slot = 0;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        // newtop-lint: allow(hot-path-alloc): grows only to the peak number of queued events; capacity persists across steps
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    slots_[slot].fn = std::move(fn);
    // newtop-lint: allow(hot-path-alloc): bounded by the queued events, cancelled ones compacted away; capacity persists across steps
    heap_.push_back(Entry{std::max(at, now_), next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    // Generation in the high half, slot + 1 in the low half: never 0.
    return (TimerId{slots_[slot].generation} << 32) | (TimerId{slot} + 1);
}

TimerId Scheduler::schedule_after(SimDuration delay, Task fn) {
    return schedule_at(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
}

void Scheduler::cancel(TimerId id) {
    const TimerId index = id & 0xffff'ffffU;
    if (index == 0 || index > slots_.size()) return;
    Slot& slot = slots_[index - 1];
    if (slot.generation != (id >> 32) || !slot.fn) return;  // fired or cancelled
    // Destroyed on return, once the bookkeeping is consistent: the captured
    // state's destructor may itself schedule or cancel.
    const Task doomed = std::move(slot.fn);
    ++cancelled_;
    if (cancelled_ > kCompactFloor && cancelled_ > heap_.size() - cancelled_) compact();
}

void Scheduler::release(std::uint32_t slot) {
    ++slots_[slot].generation;
    // newtop-lint: allow(hot-path-alloc): never longer than slots_; capacity persists across steps
    free_slots_.push_back(slot);
}

void Scheduler::compact() {
    std::size_t kept = 0;
    for (const Entry& entry : heap_) {
        if (slots_[entry.slot].fn) {
            heap_[kept++] = entry;
        } else {
            release(entry.slot);
        }
    }
    heap_.resize(kept);
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    cancelled_ = 0;
}

Task Scheduler::pop_next(SimTime deadline) {
    while (!heap_.empty() && heap_.front().at <= deadline) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        const Entry entry = heap_.back();
        heap_.pop_back();
        release(entry.slot);
        Task& fn = slots_[entry.slot].fn;
        if (fn) {
            now_ = entry.at;
            return std::move(fn);
        }
        --cancelled_;
    }
    return nullptr;
}

bool Scheduler::step() {
    Task fn = pop_next(std::numeric_limits<SimTime>::max());
    if (!fn) return false;
    fn();
    return true;
}

std::size_t Scheduler::run(std::size_t limit) {
    std::size_t n = 0;
    while (n < limit && step()) ++n;
    return n;
}

void Scheduler::run_until(SimTime deadline) {
    while (Task fn = pop_next(deadline)) fn();
    now_ = std::max(now_, deadline);
}

}  // namespace newtop
