/**
 * @file
 * The event queue's lazy-deletion housekeeping and its calendar
 * (bucketed) storage. Historically reschedule() stranded one cancelled
 * entry per call with nothing ever reclaiming them mid-run, so
 * reschedule-heavy components grew the queue without bound;
 * compaction now bounds the stored entries by the live count. The
 * bucketed queue must replay the exact (when, priority, sequence)
 * order of the reference heap (heap_eventq.hh).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "heap_eventq.hh"
#include "sim/eventq.hh"

namespace capcheck
{
namespace
{

/** Reschedule churn on @p Queue must keep storage within the
 *  compaction bound. */
template <class Queue, class Ev>
void
checkChurnBounded()
{
    Queue q;
    std::vector<std::unique_ptr<Ev>> events;
    for (int i = 0; i < 8; ++i) {
        events.push_back(std::make_unique<Ev>([] {}));
        q.schedule(events.back().get(), 100 + i);
    }

    for (int i = 0; i < 20000; ++i) {
        Ev *ev = events[i % events.size()].get();
        q.reschedule(ev, 100 + (i * 13) % 50);
        ASSERT_EQ(q.pending(), events.size());
        // The documented compaction bound; without it the queue would
        // hold ~20000 stale entries by the end of the loop.
        ASSERT_LE(q.storedEntries(), 2 * q.pending() + 1)
            << "iteration " << i;
    }

    for (auto &ev : events)
        q.deschedule(ev.get());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_LE(q.storedEntries(), 1u);
}

TEST(EventQueueCompaction, RescheduleChurnIsBounded)
{
    checkChurnBounded<EventQueue, LambdaEvent>();
    checkChurnBounded<test::HeapEventQueue, test::HeapEvent>();
}

/** Drive one scripted scenario and return the firing order. */
template <class Queue, class Ev>
std::vector<int>
runScenario(Cycles *end_cycle)
{
    Queue q;
    std::vector<int> order;
    std::vector<std::unique_ptr<Ev>> events;
    const auto add = [&](int id, int prio) {
        events.push_back(std::make_unique<Ev>(
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
    Ev *moved = add(5, Event::checkPrio);
    q.schedule(moved, 10);
    q.reschedule(moved, 15);
    Ev *dropped = add(6, Event::defaultPrio);
    q.schedule(dropped, 12);
    q.deschedule(dropped);

    // An event that schedules more work while running.
    Ev *tail = add(7, Event::defaultPrio);
    events.push_back(std::make_unique<Ev>(
        [&q, &order, tail] {
            order.push_back(8);
            q.schedule(tail, q.curCycle() + 3);
        },
        Event::arbitratePrio));
    q.schedule(events.back().get(), 15);

    *end_cycle = q.run(100);
    return order;
}

TEST(EventQueueCompaction, BucketedMatchesHeapOrder)
{
    Cycles heap_end = 0;
    Cycles bucketed_end = 0;
    const std::vector<int> heap_order =
        runScenario<test::HeapEventQueue, test::HeapEvent>(&heap_end);
    const std::vector<int> bucketed_order =
        runScenario<EventQueue, LambdaEvent>(&bucketed_end);

    EXPECT_EQ(heap_order,
              (std::vector<int>{3, 1, 0, 2, 5, 8, 7, 4}));
    EXPECT_EQ(bucketed_order, heap_order);
    // run(limit) advances to the horizon on both implementations.
    EXPECT_EQ(heap_end, 100u);
    EXPECT_EQ(bucketed_end, heap_end);
}

TEST(EventQueueCompaction, BucketedStepAndEmptyBehave)
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
