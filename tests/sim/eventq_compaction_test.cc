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
#include <utility>
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

/**
 * Events of one scripted scenario, logging (cycle, id) when they fire.
 * The scripts below run unchanged on the calendar queue and on the
 * reference heap, and must produce the same log.
 */
template <class Queue, class Ev>
struct Script
{
    using Log = std::vector<std::pair<Cycles, int>>;

    Queue q;
    Log log;
    std::vector<std::unique_ptr<Ev>> events;

    Ev *
    add(int id, int prio = Event::defaultPrio)
    {
        events.push_back(std::make_unique<Ev>(
            [this, id] { log.emplace_back(q.curCycle(), id); }, prio));
        return events.back().get();
    }
};

constexpr Cycles ringSize = EventQueue::ringSize;

/** Same (cycle, priority) on both sides of the overflow-to-ring
 *  boundary: the far entry was scheduled first, so it fires first. */
template <class Queue, class Ev>
typename Script<Queue, Ev>::Log
sameSlotAcrossBoundary()
{
    Script<Queue, Ev> s;
    const Cycles far = 2000;
    s.q.schedule(s.add(0), far);                       // overflow
    s.q.schedule(s.add(1, Event::responsePrio), far);  // overflow
    s.q.schedule(s.add(2), far + 1);                   // overflow
    // One cycle short of the window: still overflow, same slot.
    s.q.run(far - ringSize);
    s.q.schedule(s.add(3), far);
    // Time enters the window: the far entries move into the ring, and
    // later schedules of the same slot land behind them.
    s.q.run(far - ringSize + 1);
    s.q.schedule(s.add(4), far);
    s.q.schedule(s.add(5, Event::responsePrio), far);
    s.q.schedule(s.add(6, Event::statsPrio), far);
    s.q.run(far - 1);
    s.q.schedule(s.add(7), far);
    s.q.schedule(s.add(8), far + 1);
    s.q.run();
    return s.log;
}

/** Schedules exactly ringSize - 1 (ring) and ringSize (overflow)
 *  cycles ahead, interleaved with same-cycle ring schedules once time
 *  has moved. */
template <class Queue, class Ev>
typename Script<Queue, Ev>::Log
windowEdges()
{
    Script<Queue, Ev> s;
    s.q.run(37);
    const Cycles now = s.q.curCycle();
    // Exactly one window ahead shares the current cycle's ring
    // position, so it must wait in overflow.
    s.q.schedule(s.add(9), now);
    s.q.schedule(s.add(10, Event::responsePrio), now + ringSize);
    s.q.step();
    s.q.schedule(s.add(0), now + ringSize - 1);
    s.q.schedule(s.add(1), now + ringSize);
    s.q.schedule(s.add(2, Event::responsePrio), now + ringSize);
    s.q.schedule(s.add(3, Event::responsePrio), now + ringSize - 1);
    s.q.schedule(s.add(4), now + 2 * ringSize - 1);
    s.q.schedule(s.add(5), now + 2 * ringSize);
    s.q.step(); // fires 3 and 0 at now + ringSize - 1
    s.q.schedule(s.add(6, Event::responsePrio), now + ringSize);
    s.q.schedule(s.add(7), s.q.curCycle() + ringSize);
    s.q.schedule(s.add(8), s.q.curCycle() + ringSize - 1);
    s.q.run();
    return s.log;
}

/** Deschedule and reschedule of overflow entries, into the overflow
 *  heap and into the ring. */
template <class Queue, class Ev>
typename Script<Queue, Ev>::Log
overflowReschedules()
{
    Script<Queue, Ev> s;
    Ev *a = s.add(0);
    Ev *b = s.add(1);
    Ev *c = s.add(2);
    Ev *d = s.add(3);
    s.q.schedule(a, 5000);
    s.q.schedule(b, 5000);
    s.q.schedule(c, 3000);
    s.q.schedule(d, 9000);
    s.q.deschedule(b);
    s.q.reschedule(a, 4000);    // overflow -> overflow
    s.q.reschedule(c, 10);      // overflow -> ring
    s.q.reschedule(d, 4000);    // behind a in the same far slot
    s.q.schedule(b, 4000 + ringSize); // back in, further out
    EXPECT_LE(s.q.storedEntries(), 2 * s.q.pending() + 1);
    s.q.run(3500);
    s.q.reschedule(d, 4000);    // now a ring entry, behind a again
    s.q.deschedule(b);          // still overflow at 3500
    s.q.schedule(b, 4000);
    s.q.run();
    EXPECT_LE(s.q.storedEntries(), 1u);
    return s.log;
}

/** A descheduled event may be destroyed at once, from the ring and
 *  from the overflow heap; the queue never touches it again. */
template <class Queue, class Ev>
typename Script<Queue, Ev>::Log
destroyAfterDeschedule()
{
    Script<Queue, Ev> s;
    s.q.schedule(s.add(0), 20);
    s.q.schedule(s.add(1), 20);          // ring neighbour
    s.q.schedule(s.add(2), 20 + ringSize * 3);
    s.q.schedule(s.add(3), 20 + ringSize * 3);
    s.q.schedule(s.add(4), 21);
    s.q.deschedule(s.events[1].get());
    s.events[1].reset();
    s.q.deschedule(s.events[2].get());
    s.events[2].reset();
    s.q.schedule(s.add(5), 20);
    s.q.run();
    return s.log;
}

TEST(EventQueueCompaction, OverflowToRingBoundaryMatchesHeap)
{
    using Log = Script<EventQueue, LambdaEvent>::Log;
    const auto check = [](const Log &fast, const Log &ref,
                          const Log &expected) {
        EXPECT_EQ(ref, expected);
        EXPECT_EQ(fast, ref);
    };
    check(sameSlotAcrossBoundary<EventQueue, LambdaEvent>(),
          sameSlotAcrossBoundary<test::HeapEventQueue, test::HeapEvent>(),
          Log{{2000, 1}, {2000, 5}, {2000, 0}, {2000, 3}, {2000, 4},
              {2000, 7}, {2000, 6}, {2001, 2}, {2001, 8}});
    const Cycles e = 37 + ringSize;
    check(windowEdges<EventQueue, LambdaEvent>(),
          windowEdges<test::HeapEventQueue, test::HeapEvent>(),
          Log{{37, 9}, {e - 1, 3}, {e - 1, 0}, {e, 10}, {e, 2}, {e, 6},
              {e, 1},
              {e + ringSize - 2, 8}, {e + ringSize - 1, 4},
              {e + ringSize - 1, 7}, {e + ringSize, 5}});
    check(overflowReschedules<EventQueue, LambdaEvent>(),
          overflowReschedules<test::HeapEventQueue, test::HeapEvent>(),
          Log{{10, 2}, {4000, 0}, {4000, 3}, {4000, 1}});
    check(destroyAfterDeschedule<EventQueue, LambdaEvent>(),
          destroyAfterDeschedule<test::HeapEventQueue, test::HeapEvent>(),
          Log{{20, 0}, {20, 5}, {21, 4}, {20 + ringSize * 3, 3}});
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
