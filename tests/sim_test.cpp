#include <gtest/gtest.h>

#include <vector>

#include "sim/cpu_queue.hpp"
#include "sim/scheduler.hpp"
#include "util/check.hpp"

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

TEST(CpuQueue, NegativeCostRejected) {
    Scheduler s;
    CpuQueue cpu(s);
    EXPECT_THROW(cpu.execute(-1, [] {}), PreconditionError);
}

}  // namespace
}  // namespace newtop
