/**
 * @file
 * Event/queue lifetime edge cases. Deschedule removes an event's entry
 * from the queue at once, so these tests pin down the contract: a
 * descheduled event may be destroyed immediately (its pointer is never
 * touched again), descheduled events are invisible to run()/step(),
 * and destroying a still-scheduled event is a hard error.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/stats.hh"
#include "obs/sampler.hh"
#include "sim/eventq.hh"

namespace capcheck
{
namespace
{

TEST(EventQueueLifetime, DescheduleThenDestroyIsSafe)
{
    // An early implementation kept the raw Event* in the heap and
    // dereferenced it when the entry surfaced — a use-after-free once
    // the owner destroyed the descheduled event. Under ASan this test
    // is the proof that the pointer is no longer touched.
    EventQueue eq;
    bool other_fired = false;
    LambdaEvent other([&] { other_fired = true; });

    auto doomed = std::make_unique<LambdaEvent>([] { FAIL(); });
    eq.schedule(doomed.get(), 10);
    eq.schedule(&other, 20);
    eq.deschedule(doomed.get());
    doomed.reset(); // free while other events are still queued

    eq.run();
    EXPECT_TRUE(other_fired);
    EXPECT_EQ(eq.curCycle(), 20u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueLifetime, DestroyedEventSlotCanBeReusedImmediately)
{
    // Same-address reuse: a fresh event allocated where the descheduled
    // one lived must not be confused with the descheduled one.
    EventQueue eq;
    auto first = std::make_unique<LambdaEvent>([] { FAIL(); });
    eq.schedule(first.get(), 5);
    eq.deschedule(first.get());
    first.reset();

    int fired = 0;
    LambdaEvent second([&] { ++fired; });
    eq.schedule(&second, 5);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueLifetime, RescheduleToSameCycleMovesBehindPeers)
{
    // Rescheduling assigns a fresh sequence number, so an event moved
    // to the same cycle fires after same-priority peers that were
    // already queued — and exactly once.
    EventQueue eq;
    std::vector<int> order;
    LambdaEvent mover([&] { order.push_back(1); });
    LambdaEvent peer([&] { order.push_back(2); });

    eq.schedule(&mover, 10);
    eq.schedule(&peer, 10);
    eq.reschedule(&mover, 10);
    eq.run();

    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueueLifetime, StaleEntriesInvisibleToRunLimit)
{
    EventQueue eq;
    bool fired = false;
    LambdaEvent live([&] { fired = true; });
    LambdaEvent cancelled_early([] { FAIL(); });
    LambdaEvent cancelled_late([] { FAIL(); });

    eq.schedule(&cancelled_early, 3);
    eq.schedule(&live, 5);
    eq.schedule(&cancelled_late, 100);
    eq.deschedule(&cancelled_early);
    eq.deschedule(&cancelled_late);

    EXPECT_EQ(eq.pending(), 1u);
    eq.run(50);
    EXPECT_TRUE(fired);
    // The cancelled cycle-100 event must not hold time below the
    // horizon.
    EXPECT_EQ(eq.curCycle(), 50u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueLifetime, StepSkipsStaleCycleAndProcessesTheLiveOne)
{
    // A cancelled earliest event must not make step() burn a no-op
    // "cycle" on a time that has no live events.
    EventQueue eq;
    bool fired = false;
    LambdaEvent cancelled([] { FAIL(); });
    LambdaEvent live([&] { fired = true; });

    eq.schedule(&cancelled, 5);
    eq.schedule(&live, 7);
    eq.deschedule(&cancelled);

    eq.step();
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.curCycle(), 7u);
}

TEST(EventQueueLifetime, StepOnDrainedQueueIsANoOp)
{
    EventQueue eq;
    LambdaEvent cancelled([] { FAIL(); });
    eq.schedule(&cancelled, 5);
    eq.deschedule(&cancelled);

    eq.step(); // only a cancelled event was ever queued
    EXPECT_EQ(eq.curCycle(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueLifetimeDeath, DestroyingScheduledEventAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_DEATH(
        {
            EventQueue eq;
            auto event = std::make_unique<LambdaEvent>([] {});
            eq.schedule(event.get(), 10);
            event.reset(); // still scheduled: must abort, not dangle
        },
        "destroyed while scheduled");
}

TEST(EventQueueLifetime, RunLimitAdvancesTimeWhenQueueDrainsEarly)
{
    // Regression: run(limit) used to stop the clock at the last event
    // when the queue drained before the horizon, so time-driven
    // observers missed their final window.
    EventQueue eq;
    std::vector<Cycles> probe_cycles;
    eq.cycleProbe().attach(
        [&](const Cycles &cycle) { probe_cycles.push_back(cycle); });

    LambdaEvent event([] {});
    eq.schedule(&event, 3);

    EXPECT_EQ(eq.run(30), 30u);
    EXPECT_EQ(eq.curCycle(), 30u);
    // Time advanced twice: to the event's cycle, then to the horizon.
    EXPECT_EQ(probe_cycles, (std::vector<Cycles>{3, 30}));

    // An unlimited run still stops at the last event processed.
    LambdaEvent later([] {});
    eq.schedule(&later, 40);
    EXPECT_EQ(eq.run(), 40u);
}

TEST(EventQueueLifetime, RunLimitDeliversStatsSamplerFinalWindow)
{
    // End-to-end form of the same regression: a sampler on a 10-cycle
    // interval must see the cycle-30 boundary even though the last
    // event fires at cycle 3.
    stats::StatGroup root("soc");
    EventQueue eq;
    obs::StatsSampler sampler(root, 10);
    sampler.attach(eq);

    LambdaEvent event([] {});
    eq.schedule(&event, 3);
    eq.run(30);

    ASSERT_EQ(sampler.numSamples(), 1u);
    sampler.finalize(eq.curCycle());
    // finalize() must not need to patch up a missing window: the run
    // itself delivered the cycle-30 sample, so it is a duplicate label
    // and gets skipped.
    EXPECT_EQ(sampler.numSamples(), 1u);
}

} // namespace
} // namespace capcheck
