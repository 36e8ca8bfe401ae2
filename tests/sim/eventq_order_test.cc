/**
 * @file
 * Scripted dispatch-order scenarios for the event queue, each against
 * its literal expected log. Events fire in (cycle, priority, sequence)
 * order however far ahead they were scheduled, however often they were
 * descheduled or rescheduled, and a descheduled event may be destroyed
 * at once.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/eventq.hh"

namespace capcheck
{
namespace
{

TEST(EventQueueOrder, ScriptedScenarioFiresInOrder)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<std::unique_ptr<LambdaEvent>> events;
    const auto add = [&](int id, int prio) {
        events.push_back(std::make_unique<LambdaEvent>(
            [&order, id] { order.push_back(id); }, prio));
        return events.back().get();
    };

    // Same cycle, mixed priorities and insertion orders; later events
    // of equal priority must fire in schedule order (sequence).
    q.schedule(add(0, Event::requestPrio), 10);
    q.schedule(add(1, Event::responsePrio), 10);
    q.schedule(add(2, Event::requestPrio), 10);
    q.schedule(add(3, Event::statsPrio), 5);
    q.schedule(add(4, Event::defaultPrio), 20);

    // Cancelled and rescheduled entries must be skipped.
    LambdaEvent *moved = add(5, Event::checkPrio);
    q.schedule(moved, 10);
    q.reschedule(moved, 15);
    LambdaEvent *dropped = add(6, Event::defaultPrio);
    q.schedule(dropped, 12);
    q.deschedule(dropped);

    // An event that schedules more work while running.
    LambdaEvent *tail = add(7, Event::defaultPrio);
    events.push_back(std::make_unique<LambdaEvent>(
        [&q, &order, tail] {
            order.push_back(8);
            q.schedule(tail, q.curCycle() + 3);
        },
        Event::arbitratePrio));
    q.schedule(events.back().get(), 15);

    // run(limit) advances to the horizon.
    EXPECT_EQ(q.run(100), 100u);
    EXPECT_EQ(order, (std::vector<int>{3, 1, 0, 2, 5, 8, 7, 4}));
}

/** Events of one scripted scenario, logging (cycle, id) when they
 *  fire. */
struct Script
{
    using Log = std::vector<std::pair<Cycles, int>>;

    EventQueue q;
    Log log;
    std::vector<std::unique_ptr<LambdaEvent>> events;

    LambdaEvent *
    add(int id, int prio = Event::defaultPrio)
    {
        events.push_back(std::make_unique<LambdaEvent>(
            [this, id] { log.emplace_back(q.curCycle(), id); }, prio));
        return events.back().get();
    }
};

/** A delay long enough to keep the scripts' far-future schedules far
 *  apart from their near ones. */
constexpr Cycles farDelay = 1024;

/** The same (cycle, priority) scheduled from far away and from close
 *  by: the earlier schedule carries the lower sequence and fires
 *  first. */
Script::Log
sameCycleScheduledNearAndFar()
{
    Script s;
    const Cycles far = 2000;
    s.q.schedule(s.add(0), far);
    s.q.schedule(s.add(1, Event::responsePrio), far);
    s.q.schedule(s.add(2), far + 1);
    s.q.run(far - farDelay);
    s.q.schedule(s.add(3), far);
    s.q.run(far - farDelay + 1);
    s.q.schedule(s.add(4), far);
    s.q.schedule(s.add(5, Event::responsePrio), far);
    s.q.schedule(s.add(6, Event::statsPrio), far);
    s.q.run(far - 1);
    s.q.schedule(s.add(7), far);
    s.q.schedule(s.add(8), far + 1);
    s.q.run();
    return s.log;
}

/** Schedules exactly farDelay - 1 and farDelay cycles ahead,
 *  interleaved with same-cycle schedules once time has moved. */
Script::Log
farDelayEdges()
{
    Script s;
    s.q.run(37);
    const Cycles now = s.q.curCycle();
    s.q.schedule(s.add(9), now);
    s.q.schedule(s.add(10, Event::responsePrio), now + farDelay);
    s.q.step();
    s.q.schedule(s.add(0), now + farDelay - 1);
    s.q.schedule(s.add(1), now + farDelay);
    s.q.schedule(s.add(2, Event::responsePrio), now + farDelay);
    s.q.schedule(s.add(3, Event::responsePrio), now + farDelay - 1);
    s.q.schedule(s.add(4), now + 2 * farDelay - 1);
    s.q.schedule(s.add(5), now + 2 * farDelay);
    s.q.step(); // fires 3 and 0 at now + farDelay - 1
    s.q.schedule(s.add(6, Event::responsePrio), now + farDelay);
    s.q.schedule(s.add(7), s.q.curCycle() + farDelay);
    s.q.schedule(s.add(8), s.q.curCycle() + farDelay - 1);
    s.q.run();
    return s.log;
}

/** Deschedules and reschedules of far-future events, to far and to
 *  near cycles. */
Script::Log
farReschedules()
{
    Script s;
    LambdaEvent *a = s.add(0);
    LambdaEvent *b = s.add(1);
    LambdaEvent *c = s.add(2);
    LambdaEvent *d = s.add(3);
    s.q.schedule(a, 5000);
    s.q.schedule(b, 5000);
    s.q.schedule(c, 3000);
    s.q.schedule(d, 9000);
    s.q.deschedule(b);
    s.q.reschedule(a, 4000);    // far -> far
    s.q.reschedule(c, 10);      // far -> near
    s.q.reschedule(d, 4000);    // behind a on the same cycle
    s.q.schedule(b, 4000 + farDelay); // back in, further out
    s.q.run(3500);
    s.q.reschedule(d, 4000);    // now near, behind a again
    s.q.deschedule(b);
    s.q.schedule(b, 4000);
    s.q.run();
    return s.log;
}

/** A descheduled event may be destroyed at once, whether it was due
 *  soon or far ahead; the queue never touches it again. */
Script::Log
destroyAfterDeschedule()
{
    Script s;
    s.q.schedule(s.add(0), 20);
    s.q.schedule(s.add(1), 20);
    s.q.schedule(s.add(2), 20 + farDelay * 3);
    s.q.schedule(s.add(3), 20 + farDelay * 3);
    s.q.schedule(s.add(4), 21);
    s.q.deschedule(s.events[1].get());
    s.events[1].reset();
    s.q.deschedule(s.events[2].get());
    s.events[2].reset();
    s.q.schedule(s.add(5), 20);
    s.q.run();
    return s.log;
}

TEST(EventQueueOrder, FarFutureScriptsFireInOrder)
{
    using Log = Script::Log;
    EXPECT_EQ(sameCycleScheduledNearAndFar(),
              (Log{{2000, 1}, {2000, 5}, {2000, 0}, {2000, 3}, {2000, 4},
                   {2000, 7}, {2000, 6}, {2001, 2}, {2001, 8}}));
    const Cycles e = 37 + farDelay;
    EXPECT_EQ(farDelayEdges(),
              (Log{{37, 9}, {e - 1, 3}, {e - 1, 0}, {e, 10}, {e, 2},
                   {e, 6}, {e, 1},
                   {e + farDelay - 2, 8}, {e + farDelay - 1, 4},
                   {e + farDelay - 1, 7}, {e + farDelay, 5}}));
    EXPECT_EQ(farReschedules(),
              (Log{{10, 2}, {4000, 0}, {4000, 3}, {4000, 1}}));
    EXPECT_EQ(destroyAfterDeschedule(),
              (Log{{20, 0}, {20, 5}, {21, 4}, {20 + farDelay * 3, 3}}));
}

TEST(EventQueueOrder, StepAndEmptyBehave)
{
    EventQueue q;
    std::vector<int> order;
    LambdaEvent a([&order] { order.push_back(1); });
    LambdaEvent b([&order] { order.push_back(2); });
    q.schedule(&a, 4);
    q.schedule(&b, 9);

    q.step();
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(q.curCycle(), 4u);
    EXPECT_EQ(q.pending(), 1u);

    q.step();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(q.empty());

    q.step(); // empty queue: no-op
    EXPECT_EQ(q.curCycle(), 9u);
}

} // namespace
} // namespace capcheck
