// The discrete-event scheduler at the heart of the simulator.
//
// Every asynchronous activity in the system — wire propagation, CPU work,
// protocol timers — is an event on this queue.  Events at equal timestamps
// run in scheduling order, which (together with the seeded RNG) makes whole
// experiments deterministic.
//
// Cancelled events are dropped from the heap in bulk: once they outnumber
// the live ones, one linear pass removes them all and re-heapifies.  The
// pop order is unaffected because the heap order (time, then scheduling
// sequence number) is a strict total order on unique keys, so which event
// runs next depends only on the set of live events, never on the heap's
// shape.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/task.hpp"
#include "util/time.hpp"

namespace newtop {

/// Handle for a scheduled event, usable to cancel it.  Opaque and never 0,
/// so protocol code can use 0 for "no timer".
using TimerId = std::uint64_t;

class Scheduler {
public:
    Scheduler() = default;

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// Current simulated time.
    [[nodiscard]] SimTime now() const { return now_; }

    /// Schedule `fn` to run at absolute time `at` (clamped to now()).
    /// `fn` must not be empty (a null pointer or an empty std::function).
    TimerId schedule_at(SimTime at, Task fn);

    /// Schedule `fn` to run `delay` from now (negative delays run "now").
    TimerId schedule_after(SimDuration delay, Task fn);

    /// Cancel a previously scheduled event and destroy its callable at
    /// once (freeing whatever it captured).  Cancelling an event that has
    /// already fired (or was already cancelled) is a no-op that leaves no
    /// state behind, which lets protocol code cancel timers unconditionally.
    void cancel(TimerId id);

    /// Run the single earliest pending event.  Returns false if none remain.
    bool step();

    /// Run events until the queue is empty or `limit` events have run.
    /// Returns the number of events executed.  The limit is a guard against
    /// livelocked protocols in tests (e.g. lively groups that heartbeat
    /// forever); production experiment drivers use run_until().
    std::size_t run(std::size_t limit = SIZE_MAX);

    /// Run all events with timestamp <= deadline; simulated time ends up at
    /// `deadline` even if the queue drains early.
    void run_until(SimTime deadline);

    /// Number of events still to run (cancelled ones excluded).
    [[nodiscard]] std::size_t pending() const { return heap_.size() - cancelled_; }

private:
    /// Heap key of one queued event; the callable waits in its slot.
    struct Entry {
        SimTime at;
        std::uint64_t seq;   // FIFO tie-break for equal timestamps
        std::uint32_t slot;  // index into slots_
    };
    /// One queued event's callable.  Taken at schedule and released when the
    /// event is popped or compacted away; the release bumps the generation,
    /// so every TimerId issued for the old occupant goes stale.  An empty
    /// `fn` on a queued entry marks a cancelled event.
    struct Slot {
        Task fn;
        std::uint32_t generation{0};
    };
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };
    /// Compaction never runs on a heap holding fewer cancelled entries.
    static constexpr std::size_t kCompactFloor = 64;

    /// Pops the next live event due by `deadline`, advances now() to it and
    /// returns its callable; empty when there is none.  Cancelled events on
    /// the way are dropped.
    Task pop_next(SimTime deadline);

    /// Returns `slot` to the free list, staling every TimerId issued for it.
    void release(std::uint32_t slot);

    /// Drops every cancelled entry from the heap and re-heapifies.
    void compact();

    SimTime now_{0};
    std::uint64_t next_seq_{0};
    std::vector<Entry> heap_;  // binary heap under Later
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::size_t cancelled_{0};  // cancelled entries still in heap_
};

}  // namespace newtop
