#include "sim/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace newtop {

// The helpers on the per-event path are `inline` so that the compiler folds
// them into their callers, all in this file.

inline std::uint32_t Scheduler::take_slot(Task fn) {
    std::uint32_t slot = 0;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        NEWTOP_EXPECTS(slot < kLaneRef, "too many queued events");
        // newtop-lint: allow(hot-path-alloc): grows only to the peak number of queued events; capacity persists across steps
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    slots_[slot].fn = std::move(fn);
    return slot;
}

inline TimerId Scheduler::timer_id(std::uint32_t slot) const {
    // Generation in the high half, slot + 1 in the low half: never 0.
    return (TimerId{slots_[slot].generation} << 32) | (TimerId{slot} + 1);
}

inline void Scheduler::release(std::uint32_t slot) {
    ++slots_[slot].generation;
    // newtop-lint: allow(hot-path-alloc): never longer than slots_; capacity persists across steps
    free_slots_.push_back(slot);
}

inline void Scheduler::push_entry(Entry entry) {
    // newtop-lint: allow(hot-path-alloc): one entry per queued heap timer or non-empty lane, cancelled timers compacted away; capacity persists across steps
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

inline void Scheduler::sift_down(std::size_t hole) {
    const Entry moving = heap_[hole];
    const std::size_t n = heap_.size();
    for (std::size_t child = 2 * hole + 1; child < n; child = 2 * hole + 1) {
        if (child + 1 < n && Later{}(heap_[child], heap_[child + 1])) ++child;
        if (!Later{}(moving, heap_[child])) break;
        heap_[hole] = heap_[child];
        hole = child;
    }
    heap_[hole] = moving;
}

TimerId Scheduler::schedule_at(SimTime at, Task fn) {
    NEWTOP_EXPECTS(static_cast<bool>(fn), "scheduled function must be callable");
    const std::uint32_t slot = take_slot(std::move(fn));
    push_entry(Entry{std::max(at, now_), next_seq_++, slot});
    ++queued_;
    return timer_id(slot);
}

TimerId Scheduler::schedule_after(SimDuration delay, Task fn) {
    return schedule_at(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
}

LaneId Scheduler::open_lane() {
    LaneId id = 0;
    if (free_lanes_.empty()) {
        id = static_cast<LaneId>(lanes_.size());
        NEWTOP_EXPECTS(id < kLaneRef, "too many lanes");
        // newtop-lint: allow(hot-path-alloc): one lane per CPU, link and ORB timeout; closed lanes are recycled once drained
        lanes_.emplace_back();
    } else {
        id = free_lanes_.back();
        free_lanes_.pop_back();
    }
    // A lane drained by compaction may have held later times than now().
    lanes_[id].back = 0;
    lanes_[id].open = true;
    return id;
}

void Scheduler::close_lane(LaneId lane) {
    NEWTOP_EXPECTS(lane < lanes_.size() && lanes_[lane].open, "closing a lane that is not open");
    lanes_[lane].open = false;
    if (lanes_[lane].events.empty()) recycle(lane);
}

void Scheduler::recycle(LaneId lane) {
    // newtop-lint: allow(hot-path-alloc): never longer than lanes_; capacity persists across steps
    free_lanes_.push_back(lane);
}

TimerId Scheduler::schedule_in(LaneId lane, SimTime at, Task fn) {
    NEWTOP_EXPECTS(static_cast<bool>(fn), "scheduled function must be callable");
    NEWTOP_EXPECTS(lane < lanes_.size() && lanes_[lane].open,
                   "scheduling on a lane that is not open");
    Lane& l = lanes_[lane];
    at = std::max(at, now_);
    NEWTOP_EXPECTS(at >= l.back, "a lane's event times must never decrease");
    l.back = at;
    const std::uint32_t slot = take_slot(std::move(fn));
    const Entry entry{at, next_seq_++, slot};
    if (l.events.empty()) push_entry(Entry{at, entry.seq, kLaneRef | lane});
    l.events.push(entry);
    ++queued_;
    return timer_id(slot);
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
    if (cancelled_ > kCompactFloor && cancelled_ > queued_ - cancelled_) compact();
}

void Scheduler::compact() {
    // Releases the slot of a cancelled event; false for a live one.
    const auto drop = [this](const Entry& entry) {
        if (slots_[entry.ref].fn) return false;
        release(entry.ref);
        --queued_;
        return true;
    };
    std::size_t kept = 0;
    for (const Entry& entry : heap_) {
        if ((entry.ref & kLaneRef) == 0) {
            if (!drop(entry)) heap_[kept++] = entry;
            continue;
        }
        const LaneId id = entry.ref & ~kLaneRef;
        Lane& lane = lanes_[id];
        lane.events.erase_if(drop);
        if (!lane.events.empty()) {
            heap_[kept++] = Entry{lane.events.front().at, lane.events.front().seq, entry.ref};
        } else if (!lane.open) {
            recycle(id);
        }
    }
    heap_.resize(kept);
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    cancelled_ = 0;
}

Task Scheduler::pop_next(SimTime deadline) {
    while (!heap_.empty() && heap_.front().at <= deadline) {
        Entry& top = heap_.front();
        const SimTime at = top.at;
        std::uint32_t slot = 0;
        if ((top.ref & kLaneRef) != 0) {
            // Take the lane's front, then re-key the lane's entry to its
            // new front in place: along a lane (at, seq) only grows, so one
            // sift-down restores the heap.
            const LaneId id = top.ref & ~kLaneRef;
            Lane& lane = lanes_[id];
            slot = lane.events.pop_front().ref;
            if (lane.events.empty()) {
                std::pop_heap(heap_.begin(), heap_.end(), Later{});
                heap_.pop_back();
                if (!lane.open) recycle(id);
            } else {
                top.at = lane.events.front().at;
                top.seq = lane.events.front().seq;
                sift_down(0);
            }
        } else {
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            slot = heap_.back().ref;
            heap_.pop_back();
        }
        --queued_;
        release(slot);
        Task& fn = slots_[slot].fn;
        if (fn) {
            now_ = at;
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
