/**
 * @file
 * Inline continuation: a tick that asks for the next cycle runs again
 * inside the same dispatch while nothing queued is due before it
 * (EventQueue::continueInline). These tests pin when the queue allows
 * it, that it keeps the queue's exact order and bookkeeping, and that
 * the profiler still counts every tick as a dispatch.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "obs/prof.hh"
#include "sim/clocked.hh"

namespace capcheck
{
namespace
{

/** Ticks a fixed number of cycles, logging each tick. */
class Ticker : public TickingObject
{
  public:
    Ticker(EventQueue &eq, stats::StatGroup *stats, std::string name,
           int count, std::vector<std::string> &log,
           int priority = Event::arbitratePrio)
        : TickingObject(eq, std::move(name), stats, priority),
          remaining(count), log(log)
    {
    }

    bool
    tick() override
    {
        log.push_back(name() + "@" + std::to_string(curCycle()));
        if (onTick)
            onTick();
        return --remaining > 0;
    }

    int remaining;
    std::vector<std::string> &log;
    std::function<void()> onTick;
};

/** Calls continueInline(@p when, @p priority) from inside a dispatch
 *  at cycle @p at, after @p setup; returns its answer. */
bool
askInside(EventQueue &eq, Cycles at, Cycles when, int priority,
          const std::function<void()> &setup = {})
{
    bool allowed = false;
    LambdaEvent probe([&] {
        if (setup)
            setup();
        allowed = eq.continueInline(when, priority);
    });
    eq.schedule(&probe, at);
    eq.run();
    return allowed;
}

TEST(InlineContinuation, AllowedWhenNothingIsDueFirst)
{
    EventQueue eq;
    EXPECT_TRUE(askInside(eq, 5, 6, Event::arbitratePrio));
    // Time moved to the continued cycle, with nothing left queued.
    EXPECT_EQ(eq.curCycle(), 6u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(InlineContinuation, RefusedWhenAnEarlierCycleIsQueued)
{
    EventQueue eq;
    LambdaEvent other([] {});
    EXPECT_FALSE(askInside(eq, 5, 7, Event::arbitratePrio,
                           [&] { eq.schedule(&other, 6); }));
}

TEST(InlineContinuation, RefusedByASameCycleEventOfLowerOrEqualPriority)
{
    for (const int queued : {Event::responsePrio, Event::arbitratePrio}) {
        EventQueue eq;
        LambdaEvent other([] {}, queued);
        EXPECT_FALSE(askInside(eq, 5, 6, Event::arbitratePrio,
                               [&] { eq.schedule(&other, 6); }))
            << "queued priority " << queued;
    }
    // A later priority on that cycle runs after the continued tick.
    EventQueue eq;
    LambdaEvent later([] {}, Event::requestPrio);
    EXPECT_TRUE(askInside(eq, 5, 6, Event::arbitratePrio,
                          [&] { eq.schedule(&later, 6); }));
}

TEST(InlineContinuation, RefusedPastTheRunLimitInsideStepAndOutsideRun)
{
    EventQueue eq;
    bool allowed = true;
    LambdaEvent probe(
        [&] { allowed = eq.continueInline(11, Event::defaultPrio); });
    eq.schedule(&probe, 10);
    eq.run(10);
    EXPECT_FALSE(allowed) << "cycle 11 lies past run(10)'s limit";

    allowed = true;
    eq.schedule(&probe, 20);
    eq.step();
    EXPECT_FALSE(allowed) << "step() runs one cycle's events";
    EXPECT_EQ(eq.curCycle(), 20u);

    EXPECT_FALSE(eq.continueInline(21, Event::defaultPrio))
        << "no dispatch is running";
}

TEST(InlineContinuation, KeepsTheQueuesOrderAndBookkeeping)
{
    EventQueue eq;
    stats::StatGroup root("root");
    std::vector<std::string> log;
    Ticker a(eq, &root, "a", 4, log);
    LambdaEvent late([&] { log.push_back("late@" +
                                         std::to_string(eq.curCycle())); },
                     Event::requestPrio);
    std::vector<Cycles> probed;
    eq.cycleProbe().attach([&](const Cycles &c) { probed.push_back(c); });
    std::vector<std::size_t> pendingSeen;
    a.onTick = [&] { pendingSeen.push_back(eq.pending()); };

    a.activate(1);
    eq.schedule(&late, 3);
    eq.run();

    // a ticks 1..4, inline except where `late` sits on cycle 3 after
    // it (requestPrio runs after arbitratePrio, so a goes first).
    EXPECT_EQ(log, (std::vector<std::string>{"a@1", "a@2", "a@3",
                                             "late@3", "a@4"}));
    // One cycle-probe notification per cycle time reached.
    EXPECT_EQ(probed, (std::vector<Cycles>{1, 2, 3, 4}));
    // While a ticks, only `late` is queued (until it has run).
    EXPECT_EQ(pendingSeen, (std::vector<std::size_t>{1, 1, 1, 0}));
    EXPECT_FALSE(a.active());
}

TEST(InlineContinuation, AWakeDuringTheTickDoesNotTickTwice)
{
    EventQueue eq;
    stats::StatGroup root("root");
    std::vector<std::string> log;
    Ticker a(eq, &root, "a", 2, log);
    // The first tick is woken for cycle 3 while it runs (as a response
    // arriving mid-tick would) and then asks for cycle 2: the queue
    // moves the wake to cycle 2, so nothing ticks on cycle 3.
    a.onTick = [&] {
        if (eq.curCycle() == 1)
            a.activate(2);
    };
    a.activate(1);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a@1", "a@2"}));
    EXPECT_EQ(eq.curCycle(), 2u);
}

TEST(InlineContinuation, EveryTickCountsAsADispatch)
{
    EventQueue eq;
    stats::StatGroup root("root");
    std::vector<std::string> log;
    Ticker a(eq, &root, "a", 5, log);
    prof::RunProfile profile;
    {
        const prof::ProfileSession session(profile);
        a.activate(1);
        eq.run();
    }
    ASSERT_EQ(log.size(), 5u);
    std::uint64_t dispatches = 0;
    for (const auto &site : profile.siteTotals()) {
        if (site.domain == "sim" && site.name == "dispatch")
            dispatches = site.calls;
    }
    EXPECT_EQ(dispatches, 5u);
}

} // namespace
} // namespace capcheck
