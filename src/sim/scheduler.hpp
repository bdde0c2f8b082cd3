// The discrete-event scheduler at the heart of the simulator.
//
// Every asynchronous activity in the system — wire propagation, CPU work,
// protocol timers — is an event on this queue.  Events at equal timestamps
// run in scheduling order, which (together with the seeded RNG) makes whole
// experiments deterministic.
//
// Events come in two kinds.  A heap timer (schedule_at / schedule_after) is
// one entry of a binary heap.  A lane event (schedule_in) joins a *lane*: a
// FIFO of events whose times never decrease, such as one CPU's completions,
// one directed link's arrivals or one ORB's call deadlines for one timeout.
// The heap holds a single entry per non-empty lane, keyed by the lane's
// front, so a long lane costs the heap one entry.  Both kinds draw their
// sequence number from one counter when scheduled, and the heap orders by
// (time, sequence number); a lane's events are in that order already, so
// the pop order is exactly the one a heap holding every event would give.
// Either kind's callable waits in one slot table, which is what a TimerId
// names, so cancel() treats both alike.
//
// Cancelled events are dropped in bulk: once they outnumber the live ones,
// one linear pass removes them all (from the heap and from every lane) and
// re-heapifies.  The pop order is unaffected because the key (time, then
// scheduling sequence number) is a strict total order on unique keys, so
// which event runs next depends only on the set of live events, never on
// the heap's shape.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/fifo_ring.hpp"
#include "sim/task.hpp"
#include "util/time.hpp"

namespace newtop {

/// Handle for a scheduled event, usable to cancel it.  Opaque and never 0,
/// so protocol code can use 0 for "no timer".
using TimerId = std::uint64_t;

/// Handle for a lane (see Scheduler::open_lane).
using LaneId = std::uint32_t;

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

    /// Open an empty lane for a stream of events whose times never
    /// decrease.  The caller owns it until close_lane().
    LaneId open_lane();

    /// Give `lane` up.  Its queued events still run (or stay cancellable);
    /// once it has drained, open_lane() may hand it out again.
    void close_lane(LaneId lane);

    /// Schedule `fn` on the open `lane` at absolute time `at` (clamped to
    /// now()), behind every event already on it.  Same order, TimerId and
    /// cancel contract as schedule_at.  Precondition: the clamped time is
    /// not before lane_back(lane).
    TimerId schedule_in(LaneId lane, SimTime at, Task fn);

    /// Time of the latest event scheduled on the open `lane` since it was
    /// opened (0 before the first): the earliest time schedule_in()
    /// accepts on it.
    [[nodiscard]] SimTime lane_back(LaneId lane) const { return lanes_[lane].back; }

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
    [[nodiscard]] std::size_t pending() const { return queued_ - cancelled_; }

    /// Lanes ever created, open, closed and recycled ones alike (tests).
    [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }

private:
    /// Key of one queued event, or of a lane's front.
    struct Entry {
        SimTime at;
        std::uint64_t seq;  // FIFO tie-break for equal timestamps
        std::uint32_t ref;  // index into slots_; in heap_, kLaneRef | lane for a lane
    };
    /// One queued event's callable.  Taken at schedule and released when the
    /// event is popped or compacted away; the release bumps the generation,
    /// so every TimerId issued for the old occupant goes stale.  An empty
    /// `fn` on a queued entry marks a cancelled event.
    struct Slot {
        Task fn;
        std::uint32_t generation{0};
    };
    /// Keys in (at, seq) order.  Has a heap entry, keyed by its front,
    /// exactly while `events` is non-empty.
    struct Lane {
        FifoRing<Entry> events;
        SimTime back{0};
        bool open{false};
    };
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };
    /// Compaction never runs while fewer cancelled events are queued.
    static constexpr std::size_t kCompactFloor = 64;
    /// Entry::ref flag for a lane's heap entry.
    static constexpr std::uint32_t kLaneRef = 0x8000'0000U;

    /// Pops the next live event due by `deadline`, advances now() to it and
    /// returns its callable; empty when there is none.  Cancelled events on
    /// the way are dropped.
    Task pop_next(SimTime deadline);

    /// Stores `fn` in a free slot and returns the slot.
    std::uint32_t take_slot(Task fn);

    /// The TimerId of the event now in `slot`.
    [[nodiscard]] TimerId timer_id(std::uint32_t slot) const;

    /// Returns `slot` to the free list, staling every TimerId issued for it.
    void release(std::uint32_t slot);

    /// Adds `entry` to the heap.
    void push_entry(Entry entry);

    /// Restores the heap order below heap_[hole], whose key has grown.
    void sift_down(std::size_t hole);

    /// Hands the closed, drained `lane` back to open_lane().
    void recycle(LaneId lane);

    /// Drops every cancelled event from the heap and the lanes and
    /// re-heapifies.
    void compact();

    SimTime now_{0};
    std::uint64_t next_seq_{0};
    std::vector<Entry> heap_;  // binary heap under Later
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::vector<Lane> lanes_;
    std::vector<LaneId> free_lanes_;  // closed and drained
    std::size_t queued_{0};     // events in the heap and the lanes, cancelled ones too
    std::size_t cancelled_{0};  // of those, the cancelled ones
};

}  // namespace newtop
