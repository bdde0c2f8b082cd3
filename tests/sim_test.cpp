#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/cpu_queue.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

TEST(Scheduler, StartsAtTimeZero) {
    Scheduler s;
    EXPECT_EQ(s.now(), 0);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
    Scheduler s;
    std::vector<int> order;
    s.schedule_at(30, [&] { order.push_back(3); });
    s.schedule_at(10, [&] { order.push_back(1); });
    s.schedule_at(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, EqualTimestampsRunInSchedulingOrder) {
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) s.schedule_at(10, [&order, i] { order.push_back(i); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterIsRelative) {
    Scheduler s;
    SimTime fired_at = -1;
    s.schedule_at(100, [&] {
        s.schedule_after(50, [&] { fired_at = s.now(); });
    });
    s.run();
    EXPECT_EQ(fired_at, 150);
}

TEST(Scheduler, PastTimesClampToNow) {
    Scheduler s;
    SimTime fired_at = -1;
    s.schedule_at(100, [&] {
        s.schedule_at(10, [&] { fired_at = s.now(); });
    });
    s.run();
    EXPECT_EQ(fired_at, 100);
}

TEST(Scheduler, NegativeDelayClampsToNow) {
    Scheduler s;
    SimTime fired_at = -1;
    s.schedule_at(100, [&] {
        s.schedule_after(-5, [&] { fired_at = s.now(); });
    });
    s.run();
    EXPECT_EQ(fired_at, 100);
}

TEST(Scheduler, CancelPreventsExecution) {
    Scheduler s;
    bool ran = false;
    const TimerId id = s.schedule_at(10, [&] { ran = true; });
    s.cancel(id);
    s.run();
    EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelAfterFiringIsHarmless) {
    Scheduler s;
    const TimerId id = s.schedule_at(10, [] {});
    s.run();
    EXPECT_NO_THROW(s.cancel(id));
}

TEST(Scheduler, CancelZeroIdIsNoop) {
    Scheduler s;
    EXPECT_NO_THROW(s.cancel(0));
}

TEST(Scheduler, IsPendingUntilTheEventRunsOrIsCancelled) {
    Scheduler s;
    EXPECT_FALSE(s.is_pending(0));
    TimerId self = 0;
    bool pending_inside = true;
    self = s.schedule_at(10, [&] { pending_inside = s.is_pending(self); });
    const TimerId other = s.schedule_at(20, [] {});
    EXPECT_TRUE(s.is_pending(self));
    s.cancel(other);
    EXPECT_FALSE(s.is_pending(other));
    s.run();
    EXPECT_FALSE(pending_inside);
    EXPECT_FALSE(s.is_pending(self));
    // A recycled slot does not revive the old id.
    const TimerId next = s.schedule_at(30, [] {});
    EXPECT_TRUE(s.is_pending(next));
    EXPECT_FALSE(s.is_pending(self));
}

// A queued callable may own a timer that cancels back into the scheduler
// from its destructor; tearing the scheduler down must allow that.
TEST(Scheduler, DestroyingQueuedCallablesMayCancelOtherEvents) {
    struct CancelOnDestroy {
        Scheduler* s{nullptr};
        TimerId victim{0};
        ~CancelOnDestroy() {
            if (s != nullptr) s->cancel(victim);
        }
    };
    auto s = std::make_unique<Scheduler>();
    auto guard = std::make_shared<CancelOnDestroy>();
    guard->s = s.get();
    s->schedule_at(10, [guard] {});  // destroyed first, while the victim is live
    guard->victim = s->schedule_at(20, [] {});
    guard.reset();
    s.reset();  // the sanitizer tree checks that no freed table is touched
    SUCCEED();
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
    Scheduler s;
    EXPECT_FALSE(s.step());
    s.schedule_at(1, [] {});
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
}

TEST(Scheduler, RunRespectsLimit) {
    Scheduler s;
    int count = 0;
    for (int i = 0; i < 10; ++i) s.schedule_at(i, [&] { ++count; });
    EXPECT_EQ(s.run(4), 4u);
    EXPECT_EQ(count, 4);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
    Scheduler s;
    std::vector<SimTime> fired;
    for (SimTime t : {10, 20, 30, 40}) s.schedule_at(t, [&, t] { fired.push_back(t); });
    s.run_until(25);
    EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
    EXPECT_EQ(s.now(), 25);
    s.run_until(100);
    EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30, 40}));
    EXPECT_EQ(s.now(), 100);
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWhenIdle) {
    Scheduler s;
    s.run_until(500);
    EXPECT_EQ(s.now(), 500);
}

TEST(Scheduler, RunUntilWithCancelledHeadBeyondDeadline) {
    Scheduler s;
    bool late_ran = false;
    const TimerId head = s.schedule_at(10, [] {});
    s.schedule_at(50, [&] { late_ran = true; });
    s.cancel(head);
    s.run_until(20);
    EXPECT_FALSE(late_ran);
    s.run_until(60);
    EXPECT_TRUE(late_ran);
}

TEST(Scheduler, EventsScheduledDuringRunAreExecuted) {
    Scheduler s;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5) s.schedule_after(1, recurse);
    };
    s.schedule_at(0, recurse);
    s.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(s.now(), 4);
}

TEST(Scheduler, NullFunctionRejected) {
    Scheduler s;
    EXPECT_THROW(s.schedule_at(1, nullptr), PreconditionError);
}

TEST(Scheduler, PendingCountExcludesCancelled) {
    Scheduler s;
    const TimerId a = s.schedule_at(1, [] {});
    s.schedule_at(2, [] {});
    EXPECT_EQ(s.pending(), 2u);
    s.cancel(a);
    EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, CancelAfterFireLeavesNoState) {
    // Regression: each cancel of a fired timer used to leave an entry
    // behind for good, and pending() underflowed past zero.
    Scheduler s;
    for (int i = 0; i < 1000; ++i) {
        const TimerId id = s.schedule_after(1, [] {});
        s.run();
        s.cancel(id);
        EXPECT_EQ(s.pending(), 0u);
    }
    // The stale handle must not cancel whatever reuses its slot.
    const TimerId fired = s.schedule_after(1, [] {});
    s.run();
    bool ran = false;
    s.schedule_after(1, [&] { ran = true; });
    s.cancel(fired);
    EXPECT_EQ(s.pending(), 1u);
    EXPECT_EQ(s.run(), 1u);
    EXPECT_TRUE(ran);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, DoubleCancelCountsOnce) {
    Scheduler s;
    const TimerId id = s.schedule_at(1, [] {});
    s.schedule_at(2, [] {});
    s.cancel(id);
    s.cancel(id);
    EXPECT_EQ(s.pending(), 1u);
    EXPECT_EQ(s.run(), 1u);
    EXPECT_EQ(s.pending(), 0u);
    s.cancel(id);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, CancelBeforeFireStillSuppressesAmongReusedSlots) {
    Scheduler s;
    int ran = 0;
    for (int round = 0; round < 3; ++round) {
        const TimerId doomed = s.schedule_after(1, [&] { ran += 100; });
        s.schedule_after(1, [&] { ++ran; });
        s.cancel(doomed);
        EXPECT_EQ(s.pending(), 1u);
        s.run();
        EXPECT_EQ(s.pending(), 0u);
    }
    EXPECT_EQ(ran, 3);
}

TEST(Scheduler, EmptyStdFunctionRejected) {
    Scheduler s;
    const std::function<void()> empty;
    EXPECT_THROW(s.schedule_at(1, empty), PreconditionError);
    EXPECT_EQ(s.pending(), 0u);
}

// Seeded schedule/cancel churn checked against a reference model: an
// ordered map keyed by (time, scheduling order).  Half the events are heap
// timers and half join one of four lanes; times are drawn on a 5 µs grid,
// so lanes and heap timers often share a timestamp.  Over 90% of events are
// cancelled, many from inside running events and many at a lane's front
// or in its middle, so cancelled entries are compacted out of the heap and
// the lanes many times; lanes are closed and fresh ones opened on the way,
// as a CPU does at a crash.  Time advances by step() and by run_until()
// deadlines that often fall between two entries of one lane.  Every fired
// event must be the model's head, pending() must match the model after
// every operation, and the stale TimerId of a compacted event must never
// cancel whatever took over its slot, on a lane or in the heap.
TEST(Scheduler, RandomizedChurnMatchesReferenceModel) {
    constexpr std::size_t kLanes = 4;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        Scheduler s;
        using Key = std::pair<SimTime, std::uint64_t>;
        std::map<Key, int> model;  // live events in expected firing order
        struct Live {
            TimerId timer;
            Key key;
            bool on_lane;
            LaneId lane;
        };
        std::map<int, Live> live;
        std::vector<int> live_ids;  // for uniform random picks
        // Live lane events by lane handle, in key order.
        std::map<LaneId, std::map<Key, int>> lane_live;
        std::array<LaneId, kLanes> lanes{};
        for (LaneId& lane : lanes) lane = s.open_lane();
        // Cancelled events by slot (the TimerId's low half), until their
        // deadline passes: a new TimerId on that slot before then means
        // compaction released it.
        std::map<std::uint32_t, std::pair<TimerId, SimTime>> cancelled_by_slot;
        std::uint64_t order = 0;
        int next_id = 0;
        std::size_t fired = 0;
        std::size_t cancels = 0;
        std::size_t schedules = 0;
        std::size_t compacted_reuses = 0;
        std::size_t lane_front_cancels = 0;
        std::size_t lane_mid_cancels = 0;
        std::size_t lane_heap_ties = 0;  // events queued at a time the other kind holds
        std::size_t split_deadlines = 0;
        std::size_t lane_switches = 0;

        const auto check_pending = [&] { ASSERT_EQ(s.pending(), model.size()); };
        const auto forget = [&](int id) {
            for (std::size_t i = 0; i < live_ids.size(); ++i) {
                if (live_ids[i] == id) {
                    live_ids[i] = live_ids.back();
                    live_ids.pop_back();
                    break;
                }
            }
            const Live& gone = live.at(id);
            if (gone.on_lane) lane_live[gone.lane].erase(gone.key);
            live.erase(id);
        };
        const auto cancel_random = [&] {
            if (live_ids.empty()) return;
            const int id = live_ids[rng.next_in(0, live_ids.size() - 1)];
            const Live victim = live.at(id);
            if (victim.on_lane) {
                const auto& queue = lane_live[victim.lane];
                ++(queue.begin()->first == victim.key ? lane_front_cancels : lane_mid_cancels);
            }
            cancelled_by_slot[static_cast<std::uint32_t>(victim.timer)] = {victim.timer,
                                                                           victim.key.first};
            s.cancel(victim.timer);
            model.erase(victim.key);
            forget(id);
            ++cancels;
        };
        std::function<void(SimDuration)> schedule;
        const auto on_fire = [&](int id) {
            ASSERT_FALSE(model.empty());
            ASSERT_EQ(model.begin()->second, id);
            ASSERT_EQ(model.begin()->first.first, s.now());
            const TimerId own = live.at(id).timer;
            model.erase(model.begin());
            forget(id);
            ++fired;
            s.cancel(own);  // already fired: a no-op
            check_pending();
            if (rng.next_bool(0.5)) schedule(0);  // same timestamp as now
            if (rng.next_bool(0.5)) schedule(5 * static_cast<SimDuration>(rng.next_in(0, 10)));
            if (rng.next_bool(0.9)) cancel_random();
            check_pending();
        };
        schedule = [&](SimDuration delay) {
            const int id = next_id++;
            const bool on_lane = rng.next_bool(0.5);
            const LaneId lane = lanes[rng.next_in(0, kLanes - 1)];
            SimTime at = s.now() + delay;
            TimerId timer = 0;
            if (on_lane) {
                at = std::max(at, s.lane_back(lane));
                timer = s.schedule_in(lane, at, [&on_fire, id] { on_fire(id); });
            } else {
                timer = s.schedule_after(delay, [&on_fire, id] { on_fire(id); });
            }
            const Key key{at, order++};
            ++schedules;
            for (auto tie = model.lower_bound(Key{at, 0});
                 tie != model.end() && tie->first.first == at; ++tie) {
                if (live.at(tie->second).on_lane != on_lane) {
                    ++lane_heap_ties;
                    break;
                }
            }
            if (on_lane) lane_live[lane].emplace(key, id);
            model.emplace(key, id);
            live.emplace(id, Live{timer, key, on_lane, lane});
            live_ids.push_back(id);
            const auto old = cancelled_by_slot.find(static_cast<std::uint32_t>(timer));
            if (old != cancelled_by_slot.end()) {
                if (old->second.second > s.now()) {
                    ++compacted_reuses;
                    s.cancel(old->second.first);  // stale: must not touch `timer`
                    check_pending();
                }
                cancelled_by_slot.erase(old);
            }
        };
        // A deadline strictly between the first two live entries of a
        // lane, when some lane has two at different times; else a short
        // random advance.
        const auto pick_deadline = [&](bool& split) -> SimTime {
            for (const auto& [lane, queue] : lane_live) {
                if (queue.size() < 2) continue;
                const SimTime first = queue.begin()->first.first;
                const SimTime second = std::next(queue.begin())->first.first;
                if (second - first < 2) continue;
                split = true;
                return first + (second - first) / 2;
            }
            return s.now() + 5 * static_cast<SimDuration>(rng.next_in(0, 4));
        };

        for (int i = 0; i < 20'000; ++i) {
            schedule(5 * static_cast<SimDuration>(rng.next_in(0, 100)));
            if (rng.next_bool(0.93)) cancel_random();
            if (rng.next_bool(0.1)) s.step();
            if (rng.next_bool(0.02)) {
                bool split = false;
                const SimTime before = s.now();
                const SimTime deadline = pick_deadline(split);
                s.run_until(deadline);
                ASSERT_EQ(s.now(), std::max(before, deadline));
                ASSERT_TRUE(model.empty() || model.begin()->first.first > deadline);
                if (split) ++split_deadlines;
            }
            if (rng.next_bool(0.005)) {
                // Give a lane up with its events still queued; they keep
                // their place in the model.  Its replacement may be a
                // recycled lane.
                LaneId& lane = lanes[rng.next_in(0, kLanes - 1)];
                s.close_lane(lane);
                lane = s.open_lane();
                ASSERT_TRUE(lane_live[lane].empty());
                ++lane_switches;
            }
            check_pending();
        }
        s.run();
        EXPECT_TRUE(model.empty());
        EXPECT_EQ(s.pending(), 0u);
        EXPECT_EQ(fired + cancels, schedules);
        EXPECT_GE(cancels * 10, schedules * 9) << "seed " << seed;
        EXPECT_GT(fired, 1'000u) << "seed " << seed;
        EXPECT_GT(compacted_reuses, 100u) << "seed " << seed;
        EXPECT_GT(lane_front_cancels, 100u) << "seed " << seed;
        EXPECT_GT(lane_mid_cancels, 100u) << "seed " << seed;
        EXPECT_GT(lane_heap_ties, 100u) << "seed " << seed;
        EXPECT_GT(split_deadlines, 10u) << "seed " << seed;
        EXPECT_GT(lane_switches, 20u) << "seed " << seed;
        EXPECT_LE(s.lane_count(), kLanes + lane_switches);
    }
}

TEST(Scheduler, LaneEventsInterleaveWithHeapTimersBySchedulingOrder) {
    Scheduler s;
    const LaneId lane = s.open_lane();
    std::vector<int> order;
    s.schedule_in(lane, 10, [&] { order.push_back(1); });
    s.schedule_at(10, [&] { order.push_back(2); });
    s.schedule_in(lane, 10, [&] { order.push_back(3); });
    s.schedule_at(5, [&] { order.push_back(0); });
    s.schedule_in(lane, 20, [&] { order.push_back(5); });
    s.schedule_at(15, [&] { order.push_back(4); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(s.now(), 20);
}

TEST(Scheduler, LaneTimeGoingBackwardsIsRejected) {
    Scheduler s;
    const LaneId lane = s.open_lane();
    s.schedule_in(lane, 100, [] {});
    EXPECT_EQ(s.lane_back(lane), 100);
    EXPECT_THROW(s.schedule_in(lane, 99, [] {}), PreconditionError);
    EXPECT_EQ(s.pending(), 1u);
    s.schedule_in(lane, 100, [] {});  // equal times are fine
    s.close_lane(lane);
    EXPECT_THROW(s.schedule_in(lane, 200, [] {}), PreconditionError);
    EXPECT_THROW(s.close_lane(lane), PreconditionError);
    EXPECT_EQ(s.run(), 2u);
}

TEST(Scheduler, LaneTimesClampToNow) {
    Scheduler s;
    const LaneId lane = s.open_lane();
    SimTime fired_at = -1;
    s.schedule_at(100, [&] { s.schedule_in(lane, 10, [&] { fired_at = s.now(); }); });
    s.run();
    EXPECT_EQ(fired_at, 100);
    EXPECT_EQ(s.lane_back(lane), 100);
}

TEST(Scheduler, DrainedClosedLanesAreRecycled) {
    Scheduler s;
    const LaneId first = s.open_lane();
    s.schedule_in(first, 50, [] {});
    s.close_lane(first);
    const LaneId second = s.open_lane();
    EXPECT_NE(second, first);  // `first` still holds an event
    s.run();
    s.close_lane(second);
    // Both drained: reopening hands them out again, with fresh backs.
    const LaneId a = s.open_lane();
    const LaneId b = s.open_lane();
    EXPECT_EQ(s.lane_count(), 2u);
    EXPECT_NE(a, b);
    EXPECT_EQ(s.lane_back(a), 0);
    EXPECT_EQ(s.lane_back(b), 0);
}

// -- Task -------------------------------------------------------------------

/// Counts its own destruction; moved-from instances do not count.
class DestroyCounter {
public:
    explicit DestroyCounter(int* count) : count_(count) {}
    DestroyCounter(DestroyCounter&& other) noexcept
        : count_(std::exchange(other.count_, nullptr)) {}
    DestroyCounter& operator=(DestroyCounter&&) = delete;
    ~DestroyCounter() {
        if (count_ != nullptr) ++*count_;
    }

private:
    int* count_;
};

/// Bigger than Task's inline buffer, so it lives on the heap.
struct Ballast {
    std::array<char, Task::kInlineBytes + 8> bytes{};
};

TEST(Task, MoveOnlyCaptureRuns) {
    Scheduler s;
    int seen = 0;
    s.schedule_at(1, [&seen, owned = std::make_unique<int>(42)] { seen = *owned; });
    s.run();
    EXPECT_EQ(seen, 42);
}

TEST(Task, CaptureLargerThanTheInlineBufferRuns) {
    Scheduler s;
    Ballast ballast;
    ballast.bytes.back() = 7;
    int seen = 0;
    s.schedule_at(1, [&seen, ballast] { seen = ballast.bytes.back(); });
    s.run();
    EXPECT_EQ(seen, 7);
}

TEST(Task, CapturedStateDestroyedOnceWhenRun) {
    for (const bool large : {false, true}) {
        int destroyed = 0;
        Scheduler s;
        if (large) {
            s.schedule_at(1, [guard = DestroyCounter(&destroyed), ballast = Ballast{}] {});
        } else {
            s.schedule_at(1, [guard = DestroyCounter(&destroyed)] {});
        }
        EXPECT_EQ(destroyed, 0);
        s.run();
        EXPECT_EQ(destroyed, 1) << "large=" << large;
    }
}

TEST(Task, CapturedStateDestroyedAtCancel) {
    for (const bool large : {false, true}) {
        int destroyed = 0;
        Scheduler s;
        const TimerId id =
            large ? s.schedule_at(1, [guard = DestroyCounter(&destroyed), ballast = Ballast{}] {})
                  : s.schedule_at(1, [guard = DestroyCounter(&destroyed)] {});
        s.schedule_at(2, [] {});
        s.cancel(id);
        EXPECT_EQ(destroyed, 1) << "large=" << large;  // at once, not when its time comes
        s.cancel(id);
        s.run();
        EXPECT_EQ(destroyed, 1) << "large=" << large;
    }
}

TEST(Task, CapturedStateDestroyedWithTheScheduler) {
    for (const bool large : {false, true}) {
        int destroyed = 0;
        {
            Scheduler s;
            if (large) {
                s.schedule_at(1, [guard = DestroyCounter(&destroyed), ballast = Ballast{}] {});
            } else {
                s.schedule_at(1, [guard = DestroyCounter(&destroyed)] {});
            }
        }
        EXPECT_EQ(destroyed, 1) << "large=" << large;
    }
}

TEST(Task, MoveTransfersTheCallable) {
    int runs = 0;
    int destroyed = 0;
    Task a = [&runs, guard = DestroyCounter(&destroyed)] { ++runs; };
    Task b = std::move(a);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty by contract
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(runs, 1);
    b = nullptr;
    EXPECT_EQ(destroyed, 1);
}

// -- CpuQueue ---------------------------------------------------------------

TEST(CpuQueue, SerializesWork) {
    Scheduler s;
    CpuQueue cpu(s);
    std::vector<SimTime> completions;
    cpu.execute(100, [&] { completions.push_back(s.now()); });
    cpu.execute(50, [&] { completions.push_back(s.now()); });
    s.run();
    EXPECT_EQ(completions, (std::vector<SimTime>{100, 150}));
}

TEST(CpuQueue, IdleCpuStartsWorkImmediately) {
    Scheduler s;
    CpuQueue cpu(s);
    SimTime done = -1;
    s.schedule_at(1000, [&] { cpu.execute(10, [&] { done = s.now(); }); });
    s.run();
    EXPECT_EQ(done, 1010);
}

TEST(CpuQueue, QueueingCreatesBacklog) {
    Scheduler s;
    CpuQueue cpu(s);
    // Two submissions at t=0 and t=10; the second waits for the first.
    SimTime second_done = -1;
    cpu.execute(100, [] {});
    s.schedule_at(10, [&] { cpu.execute(20, [&] { second_done = s.now(); }); });
    s.run();
    EXPECT_EQ(second_done, 120);
}

TEST(CpuQueue, ZeroCostWorkStillDefers) {
    Scheduler s;
    CpuQueue cpu(s);
    bool ran_inline = true;
    cpu.execute(0, [&] { ran_inline = false; });
    EXPECT_TRUE(ran_inline);  // not yet run: handlers never run re-entrantly
    s.run();
    EXPECT_FALSE(ran_inline);
}

TEST(CpuQueue, TracksConsumedTime) {
    Scheduler s;
    CpuQueue cpu(s);
    cpu.execute(30, [] {});
    cpu.execute(70, [] {});
    s.run();
    EXPECT_EQ(cpu.consumed(), 100);
}

TEST(CpuQueue, ResetDropsQueuedWork) {
    Scheduler s;
    CpuQueue cpu(s);
    bool ran = false;
    cpu.execute(100, [&] { ran = true; });
    cpu.reset();
    s.run();
    EXPECT_FALSE(ran);
}

TEST(CpuQueue, WorkAfterResetRuns) {
    Scheduler s;
    CpuQueue cpu(s);
    cpu.execute(100, [] { FAIL() << "dropped work must not run"; });
    cpu.reset();
    bool ran = false;
    cpu.execute(10, [&] { ran = true; });
    s.run();
    EXPECT_TRUE(ran);
}

TEST(CpuQueue, WorkQueuedBeforeKillNeverRuns) {
    Scheduler s;
    CpuQueue cpu(s);
    std::vector<SimTime> ran;
    cpu.execute(100, [] { FAIL() << "work queued before kill() must not run"; });
    cpu.execute(100, [] { FAIL() << "work queued before kill() must not run"; });
    s.schedule_at(50, [&] {
        cpu.kill();
        cpu.execute(10, [] { FAIL() << "a dead CPU runs nothing"; });
        cpu.revive();
        // Completes at 60, before the dead work's 100 and 200: a fresh lane.
        cpu.execute(10, [&] { ran.push_back(s.now()); });
        cpu.execute(300, [&] { ran.push_back(s.now()); });
    });
    s.run();
    EXPECT_EQ(ran, (std::vector<SimTime>{60, 360}));
    EXPECT_EQ(s.pending(), 0u);
}

// Each crash abandons the CPU's lane with work still queued on it; once
// that work has drained, the lane is handed out again, so cycles that
// outpace the drain leave a bounded number of lanes.
TEST(CpuQueue, CrashRestartCyclesKeepTheLaneCountBounded) {
    Scheduler s;
    CpuQueue cpu(s);
    int ran = 0;
    for (int cycle = 0; cycle < 10'000; ++cycle) {
        cpu.execute(100, [&] { ++ran; });
        cpu.execute(100, [&] { ++ran; });
        s.run_until(s.now() + 150);  // the first completes, the second waits
        cpu.kill();
        cpu.revive();
    }
    s.run();
    EXPECT_EQ(ran, 10'000);
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_LE(s.lane_count(), 4u);
}

TEST(CpuQueue, MoveOnlyWorkRuns) {
    Scheduler s;
    CpuQueue cpu(s);
    int seen = 0;
    cpu.execute(10, [&seen, owned = std::make_unique<int>(5)] { seen = *owned; });
    s.run();
    EXPECT_EQ(seen, 5);
}

TEST(CpuQueue, EmptyWorkRejected) {
    Scheduler s;
    CpuQueue cpu(s);
    const std::function<void()> empty;
    EXPECT_THROW(cpu.execute(1, empty), PreconditionError);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(CpuQueue, NegativeCostRejected) {
    Scheduler s;
    CpuQueue cpu(s);
    EXPECT_THROW(cpu.execute(-1, [] {}), PreconditionError);
}

}  // namespace
}  // namespace newtop
