/**
 * @file
 * Seeded differential of the event queue against a sorted model: every
 * pending event as one (cycle, priority, sequence, id) key in a
 * std::set, dispatched from its front. The two run in lockstep through
 * random schedules, deschedules, reschedules, run(limit) and step(),
 * and schedules made during dispatch; the exact firing log, the current
 * cycle and the pending count must match after every operation. Two
 * traffic profiles run it: a deep heap of near events, and a shallow
 * one spread far into the future.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "../fuzz/fuzz_env.hh"
#include "base/random.hh"
#include "sim/eventq.hh"

namespace capcheck
{
namespace
{

using Fire = std::tuple<Cycles, int, std::size_t>;

/** Every fifth event chains its successor at a 0-2 cycle delay when it
 *  fires, so events are also scheduled from inside dispatch, at the
 *  current cycle included. @return the successor's id, or none. */
std::optional<std::size_t>
chained(std::size_t id, std::size_t count)
{
    if (id % 5 != 0)
        return std::nullopt;
    return (id + 1) % count;
}

/** The queue under test plus its event pool; every event logs its
 *  (cycle, priority, id) when it fires. */
struct Harness
{
    EventQueue q;
    std::vector<int> priorities;
    std::vector<std::unique_ptr<LambdaEvent>> events;
    std::vector<Fire> log;

    explicit Harness(const std::vector<int> &priorities)
        : priorities(priorities)
    {
        for (std::size_t id = 0; id < priorities.size(); ++id)
            events.push_back(make(id));
    }

    std::unique_ptr<LambdaEvent>
    make(std::size_t id)
    {
        return std::make_unique<LambdaEvent>(
            [this, id] {
                log.emplace_back(q.curCycle(), priorities[id], id);
                const auto next = chained(id, events.size());
                if (next && !events[*next]->scheduled())
                    q.schedule(events[*next].get(), q.curCycle() + id % 3);
            },
            priorities[id]);
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

/** The reference: the same events and chaining as Harness, kept as
 *  sorted keys. */
class SortedModel
{
  public:
    explicit SortedModel(const std::vector<int> &priorities)
        : priorities(priorities), keys(priorities.size())
    {
    }

    Cycles curCycle() const { return now; }
    std::size_t pending() const { return queue.size(); }
    bool scheduled(std::size_t id) const { return keys[id].has_value(); }

    void
    schedule(std::size_t id, Cycles when)
    {
        keys[id] = Key{when, priorities[id], sequence++, id};
        queue.insert(*keys[id]);
    }

    void
    deschedule(std::size_t id)
    {
        queue.erase(*keys[id]);
        keys[id].reset();
    }

    void
    reschedule(std::size_t id, Cycles when)
    {
        if (scheduled(id))
            deschedule(id);
        schedule(id, when);
    }

    Cycles
    run(Cycles limit = EventQueue::forever)
    {
        while (!queue.empty() && std::get<0>(*queue.begin()) <= limit)
            fireFront();
        if (limit != EventQueue::forever && now < limit)
            now = limit;
        return now;
    }

    void
    step()
    {
        if (queue.empty())
            return;
        const Cycles cycle = std::get<0>(*queue.begin());
        while (!queue.empty() && std::get<0>(*queue.begin()) == cycle)
            fireFront();
    }

    std::vector<Fire> log;

  private:
    using Key = std::tuple<Cycles, int, std::uint64_t, std::size_t>;

    void
    fireFront()
    {
        const auto [when, priority, seq, id] = *queue.begin();
        deschedule(id);
        now = when;
        log.emplace_back(now, priority, id);
        const auto next = chained(id, keys.size());
        if (next && !scheduled(*next))
            schedule(*next, now + id % 3);
    }

    std::vector<int> priorities;
    std::vector<std::optional<Key>> keys;
    std::set<Key> queue;
    Cycles now = 0;
    std::uint64_t sequence = 0;
};

/** One shape of random traffic for the differential. */
struct Profile
{
    /** Size of the event pool. */
    std::size_t events;
    /** Added to each seed, so the profiles draw different streams. */
    std::uint64_t salt;
    /** run(limit) advances up to this many cycles past now. */
    Cycles runSpan;
    /** Draws one schedule's delay. */
    Cycles (*delay)(Rng &rng);
};

/** Runs 8 seeds x CAPCHECK_FUZZ_ITERS random ops (CAPCHECK_FUZZ_SEED
 *  moves the seeds) through the queue and the model in lockstep. */
void
runDifferential(const Profile &profile)
{
    // Same-cycle ties need few distinct priorities.
    constexpr std::array<int, 4> prios = {
        Event::responsePrio, Event::arbitratePrio, Event::requestPrio,
        Event::defaultPrio};
    const std::uint64_t ops = fuzz::iterations();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(fuzz::seed() + profile.salt +
                seed * 0x9e3779b97f4a7c15ull);
        std::vector<int> priorities(profile.events);
        for (int &p : priorities)
            p = prios[rng.nextBounded(prios.size())];
        Harness fast(priorities);
        SortedModel ref(priorities);

        std::size_t checked = 0;
        for (std::uint64_t op = 0; op < ops; ++op) {
            const std::size_t id = rng.nextBounded(priorities.size());
            LambdaEvent *fe = fast.events[id].get();
            ASSERT_EQ(fe->scheduled(), ref.scheduled(id))
                << "seed " << seed << " op " << op;
            const Cycles now = fast.q.curCycle();
            switch (rng.nextBounded(8)) {
              case 0:
              case 1:
              case 2:
                if (!fe->scheduled()) {
                    const Cycles when = now + profile.delay(rng);
                    fast.q.schedule(fe, when);
                    ref.schedule(id, when);
                }
                break;
              case 3:
                // A descheduled event may be destroyed at once.
                if (fe->scheduled()) {
                    fast.q.deschedule(fe);
                    ref.deschedule(id);
                    fast.events[id] = fast.make(id);
                }
                break;
              case 4:
              case 5: {
                const Cycles when = now + profile.delay(rng);
                fast.q.reschedule(fe, when);
                ref.reschedule(id, when);
                break;
              }
              case 6: {
                const Cycles limit = now + rng.nextBounded(profile.runSpan);
                ASSERT_EQ(fast.q.run(limit), ref.run(limit));
                break;
              }
              default:
                fast.q.step();
                ref.step();
                break;
            }
            ASSERT_EQ(fast.q.curCycle(), ref.curCycle())
                << "seed " << seed << " op " << op;
            ASSERT_EQ(fast.q.pending(), ref.pending())
                << "seed " << seed << " op " << op;
            ASSERT_EQ(fast.log.size(), ref.log.size())
                << "seed " << seed << " op " << op;
            ASSERT_TRUE(std::equal(fast.log.begin() + checked,
                                   fast.log.end(),
                                   ref.log.begin() + checked))
                << "seed " << seed << " op " << op;
            checked = fast.log.size();
        }
        ASSERT_EQ(fast.q.run(), ref.run());
        ASSERT_FALSE(ref.log.empty());
        EXPECT_EQ(fast.log, ref.log) << "seed " << seed;
        EXPECT_TRUE(fast.q.empty());
    }
}

/** A deep heap: a 512-event pool with delays under a thousand cycles
 *  and short runs keeps up to a hundred or so events pending, so removals
 *  from the middle of the heap sift both ways across several levels. */
TEST(EventQueueStress, RandomScheduleDescheduleMatchesReference)
{
    runDifferential({512, 0x2718, 50, [](Rng &rng) -> Cycles {
                         return rng.nextBool(0.25) ? rng.nextBounded(3)
                                                   : rng.nextBounded(1000);
                     }});
}

/** A shallow heap over a wide time range: a 48-event pool with
 *  same-cycle ties, near delays and delays well past a thousand
 *  cycles. The name is kept from when the oracle was a reference
 *  binary heap; the sorted model checks the same dispatch order. */
TEST(EventQueueStress, MatchesHeapOracleDispatchOrder)
{
    runDifferential({48, 0, 1500, [](Rng &rng) -> Cycles {
                         switch (rng.nextBounded(4)) {
                           case 0:
                             return rng.nextBounded(3); // same-cycle ties
                           case 1:
                             return rng.nextBounded(64);
                           case 2:
                             return 1020 + rng.nextBounded(8);
                           default:
                             return 1024 + rng.nextBounded(6000);
                         }
                     }});
}

} // namespace
} // namespace capcheck
