/**
 * @file
 * Randomized stress tests of the event queue: one against a
 * straightforward reference model (a sorted multimap), exercising the
 * lazy-deletion path that deschedule/reschedule rely on, and a seeded
 * differential against the reference binary heap (heap_eventq.hh)
 * that pins the exact dispatch order.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "../fuzz/fuzz_env.hh"
#include "base/random.hh"
#include "heap_eventq.hh"
#include "sim/eventq.hh"

namespace capcheck
{
namespace
{

TEST(EventQueueStress, RandomScheduleDescheduleMatchesReference)
{
    EventQueue eq;
    Rng rng(2718);

    struct Tracker
    {
        std::unique_ptr<LambdaEvent> event;
        bool fired = false;
    };
    std::vector<Tracker> trackers;
    trackers.reserve(4000);

    // Reference: expected fire time per event index (or none).
    std::map<std::size_t, Cycles> expected;
    std::vector<std::pair<Cycles, std::size_t>> fired_log;

    Cycles horizon = 1;
    for (int step = 0; step < 4000; ++step) {
        const double dice = rng.nextDouble();
        if (dice < 0.70 || trackers.empty()) {
            // Schedule a fresh event in the future.
            const std::size_t idx = trackers.size();
            trackers.push_back({});
            trackers[idx].event = std::make_unique<LambdaEvent>(
                [&fired_log, &eq, idx] {
                    fired_log.emplace_back(eq.curCycle(), idx);
                });
            const Cycles when = horizon + rng.nextBounded(200);
            eq.schedule(trackers[idx].event.get(), when);
            expected[idx] = when;
        } else if (dice < 0.85) {
            // Deschedule a random still-scheduled event.
            const std::size_t idx = rng.nextBounded(trackers.size());
            if (trackers[idx].event->scheduled()) {
                eq.deschedule(trackers[idx].event.get());
                expected.erase(idx);
            }
        } else {
            // Reschedule a random still-scheduled event.
            const std::size_t idx = rng.nextBounded(trackers.size());
            if (trackers[idx].event->scheduled()) {
                const Cycles when = horizon + rng.nextBounded(200);
                eq.reschedule(trackers[idx].event.get(), when);
                expected[idx] = when;
            }
        }

        // Occasionally advance time partially.
        if (rng.nextBool(0.1)) {
            horizon += rng.nextBounded(50);
            eq.run(horizon);
        }
    }
    eq.run();

    // Every still-expected event fired exactly once at its time.
    std::map<std::size_t, Cycles> fired_at;
    for (const auto &[when, idx] : fired_log) {
        EXPECT_TRUE(fired_at.emplace(idx, when).second)
            << "event " << idx << " fired twice";
    }

    for (const auto &[idx, when] : expected) {
        auto it = fired_at.find(idx);
        ASSERT_NE(it, fired_at.end()) << "event " << idx << " lost";
        EXPECT_EQ(it->second, when) << "event " << idx;
    }
    // And nothing fired that was not expected.
    for (const auto &[idx, when] : fired_at) {
        auto it = expected.find(idx);
        ASSERT_NE(it, expected.end())
            << "event " << idx << " fired after deschedule";
    }

    // Fire log is time-ordered.
    for (std::size_t i = 0; i + 1 < fired_log.size(); ++i)
        EXPECT_LE(fired_log[i].first, fired_log[i + 1].first);

    EXPECT_EQ(eq.pending(), 0u);
}

/**
 * One queue under test plus its event pool. Every event logs its
 * (cycle, priority, id) when it fires; every fifth event then chains
 * its successor at a short delay, so events are also scheduled from
 * inside dispatch, at the current cycle included.
 */
template <class Queue, class Ev>
struct Harness
{
    using Fire = std::tuple<Cycles, int, std::size_t>;

    Queue q;
    std::vector<std::unique_ptr<Ev>> events;
    std::vector<Fire> log;

    explicit Harness(const std::vector<int> &priorities)
    {
        for (std::size_t id = 0; id < priorities.size(); ++id) {
            events.push_back(std::make_unique<Ev>(
                [this, id] {
                    log.emplace_back(q.curCycle(),
                                     events[id]->priority(), id);
                    Ev *next = events[(id + 1) % events.size()].get();
                    if (id % 5 == 0 && !next->scheduled())
                        q.schedule(next, q.curCycle() + id % 3);
                },
                priorities[id]));
        }
    }

    /** The events' callbacks hold `this`. */
    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    /** A failed assertion returns mid-run: deschedule what is left so
     *  the events can be destroyed. */
    ~Harness()
    {
        for (const auto &ev : events) {
            if (ev->scheduled())
                q.deschedule(ev.get());
        }
    }
};

TEST(EventQueueStress, MatchesHeapOracleDispatchOrder)
{
    // Same-cycle ties need few distinct priorities; ringSize-crossing
    // delays need schedules beyond the calendar's 1024-cycle window.
    constexpr std::array<int, 4> prios = {
        Event::responsePrio, Event::arbitratePrio, Event::requestPrio,
        Event::defaultPrio};
    // CAPCHECK_FUZZ_ITERS / CAPCHECK_FUZZ_SEED scale a soak run.
    const std::uint64_t ops = fuzz::iterations();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(fuzz::seed() + seed * 0x9e3779b97f4a7c15ull);
        std::vector<int> priorities(48);
        for (int &p : priorities)
            p = prios[rng.nextBounded(prios.size())];
        Harness<EventQueue, LambdaEvent> fast(priorities);
        Harness<test::HeapEventQueue, test::HeapEvent> ref(priorities);

        const auto delay = [&rng]() -> Cycles {
            switch (rng.nextBounded(4)) {
              case 0:
                return rng.nextBounded(3); // same-cycle ties
              case 1:
                return rng.nextBounded(64);
              case 2:
                return 1020 + rng.nextBounded(8); // 1024-cycle ring edge
              default:
                return 1024 + rng.nextBounded(6000); // past the ring
            }
        };

        for (std::uint64_t op = 0; op < ops; ++op) {
            const std::size_t id = rng.nextBounded(priorities.size());
            LambdaEvent *fe = fast.events[id].get();
            test::HeapEvent *re = ref.events[id].get();
            ASSERT_EQ(fe->scheduled(), re->scheduled())
                << "seed " << seed << " op " << op;
            const Cycles now = fast.q.curCycle();
            switch (rng.nextBounded(8)) {
              case 0:
              case 1:
              case 2:
                if (!fe->scheduled()) {
                    const Cycles when = now + delay();
                    fast.q.schedule(fe, when);
                    ref.q.schedule(re, when);
                }
                break;
              case 3:
                if (fe->scheduled()) {
                    fast.q.deschedule(fe);
                    ref.q.deschedule(re);
                }
                break;
              case 4:
              case 5: {
                const Cycles when = now + delay();
                fast.q.reschedule(fe, when);
                ref.q.reschedule(re, when);
                break;
              }
              case 6: {
                const Cycles limit = now + rng.nextBounded(1500);
                ASSERT_EQ(fast.q.run(limit), ref.q.run(limit));
                break;
              }
              default:
                fast.q.step();
                ref.q.step();
                break;
            }
            ASSERT_EQ(fast.q.curCycle(), ref.q.curCycle())
                << "seed " << seed << " op " << op;
            ASSERT_EQ(fast.q.pending(), ref.q.pending())
                << "seed " << seed << " op " << op;
            ASSERT_EQ(fast.log.size(), ref.log.size())
                << "seed " << seed << " op " << op;
        }
        fast.q.run();
        ref.q.run();
        ASSERT_FALSE(ref.log.empty());
        EXPECT_EQ(fast.log, ref.log) << "seed " << seed;
        EXPECT_TRUE(fast.q.empty());
    }
}

} // namespace
} // namespace capcheck
