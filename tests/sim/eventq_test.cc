#include <gtest/gtest.h>

#include <vector>

#include "base/logging.hh"
#include "sim/eventq.hh"

namespace capcheck
{
namespace
{

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    LambdaEvent e1([&] { order.push_back(1); });
    LambdaEvent e2([&] { order.push_back(2); });
    LambdaEvent e3([&] { order.push_back(3); });

    eq.schedule(&e2, 20);
    eq.schedule(&e3, 30);
    eq.schedule(&e1, 10);
    eq.run();

    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curCycle(), 30u);
}

TEST(EventQueue, SameCycleOrderedByPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    LambdaEvent low([&] { order.push_back(1); }, Event::requestPrio);
    LambdaEvent high([&] { order.push_back(0); }, Event::responsePrio);
    LambdaEvent first([&] { order.push_back(2); }, Event::defaultPrio);
    LambdaEvent second([&] { order.push_back(3); }, Event::defaultPrio);

    eq.schedule(&first, 5);
    eq.schedule(&second, 5);
    eq.schedule(&low, 5);
    eq.schedule(&high, 5);
    eq.run();

    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    LambdaEvent chained([&] { fired = 2; });
    LambdaEvent starter([&] {
        fired = 1;
        eq.schedule(&chained, eq.curCycle() + 3);
    });

    eq.schedule(&starter, 1);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curCycle(), 4u);
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    bool fired = false;
    LambdaEvent event([&] { fired = true; });
    eq.schedule(&event, 10);
    eq.deschedule(&event);
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_FALSE(event.scheduled());
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    Cycles fired_at = 0;
    LambdaEvent event([&] { fired_at = eq.curCycle(); });
    eq.schedule(&event, 10);
    eq.reschedule(&event, 25);
    eq.run();
    EXPECT_EQ(fired_at, 25u);
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    bool fired = false;
    LambdaEvent event([&] { fired = true; });
    eq.schedule(&event, 100);

    eq.run(50);
    EXPECT_FALSE(fired);
    EXPECT_EQ(eq.curCycle(), 50u);

    eq.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.curCycle(), 100u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    LambdaEvent sentinel([] {});
    eq.schedule(&sentinel, 50);
    eq.run();

    LambdaEvent late([] {});
    EXPECT_THROW(eq.schedule(&late, 10), SimError);
}

TEST(EventQueue, DoubleSchedulePanics)
{
    EventQueue eq;
    LambdaEvent event([] {});
    eq.schedule(&event, 1);
    EXPECT_THROW(eq.schedule(&event, 2), SimError);
    eq.deschedule(&event);
}

TEST(EventQueue, DescheduleUnscheduledPanics)
{
    EventQueue eq;
    LambdaEvent event([] {});
    EXPECT_THROW(eq.deschedule(&event), SimError);
}

TEST(EventQueue, StepProcessesOneCycleOnly)
{
    EventQueue eq;
    std::vector<int> order;
    LambdaEvent a([&] { order.push_back(1); });
    LambdaEvent b([&] { order.push_back(2); });
    LambdaEvent c([&] { order.push_back(3); });
    eq.schedule(&a, 5);
    eq.schedule(&b, 5);
    eq.schedule(&c, 6);

    eq.step();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    eq.step();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PendingCountsLiveEvents)
{
    EventQueue eq;
    LambdaEvent a([] {});
    LambdaEvent b([] {});
    eq.schedule(&a, 1);
    eq.schedule(&b, 2);
    EXPECT_EQ(eq.pending(), 2u);
    eq.deschedule(&a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RescheduleAfterDescheduleViaStaleHeapEntry)
{
    // A reschedule to the same cycle replaces the event's entry: the
    // event fires once, not once per schedule.
    EventQueue eq;
    int count = 0;
    LambdaEvent event([&] { ++count; });
    eq.schedule(&event, 10);
    eq.reschedule(&event, 10); // same cycle, new sequence number
    eq.run();
    EXPECT_EQ(count, 1);
}

} // namespace
} // namespace capcheck
