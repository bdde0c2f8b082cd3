// The discrete-event scheduler at the heart of the simulator.
//
// Every asynchronous activity in the system — wire propagation, CPU work,
// protocol timers — is an event on this queue.  Events at equal timestamps
// run in scheduling order, which (together with the seeded RNG) makes whole
// experiments deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

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
    TimerId schedule_at(SimTime at, std::function<void()> fn);

    /// Schedule `fn` to run `delay` from now (negative delays run "now").
    TimerId schedule_after(SimDuration delay, std::function<void()> fn);

    /// Cancel a previously scheduled event.  Cancelling an event that has
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
    [[nodiscard]] std::size_t pending() const { return queue_.size() - cancelled_; }

private:
    struct Event {
        SimTime at;
        std::uint64_t seq;   // FIFO tie-break for equal timestamps
        std::uint32_t slot;  // index into slots_
        std::function<void()> fn;
    };
    /// Cancellation state of one queued event.  Taken at schedule, released
    /// when the event is popped; the release bumps the generation, so every
    /// TimerId issued for the old occupant goes stale.
    struct Slot {
        std::uint32_t generation{0};
        bool cancelled{false};
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };

    /// Moves the next non-cancelled event due by `deadline` into `out`;
    /// false when there is none.  Cancelled events on the way are dropped.
    bool pop_next(Event& out, SimTime deadline);

    SimTime now_{0};
    std::uint64_t next_seq_{0};
    std::vector<Event> queue_;  // binary heap under Later
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::size_t cancelled_{0};  // cancelled events still in queue_
};

}  // namespace newtop
