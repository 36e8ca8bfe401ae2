/**
 * @file
 * Reference event queue for differential tests: one binary heap over
 * every pending (cycle, priority, sequence) entry, with lazy deletion
 * by cancelled sequence number and compaction once cancelled entries
 * outnumber live ones. It was the simulator's original queue; the
 * production calendar queue (sim/eventq.hh) must dispatch in exactly
 * its order.
 *
 * The API mirrors EventQueue on a separate event type, so one test
 * body can drive either queue (see eventq_compaction_test.cc and the
 * seeded differential in eventq_stress_test.cc).
 */

#ifndef CAPCHECK_TESTS_SIM_HEAP_EVENTQ_HH
#define CAPCHECK_TESTS_SIM_HEAP_EVENTQ_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/eventq.hh"

namespace capcheck::test
{

/** An event of the reference queue; mirrors LambdaEvent. */
class HeapEvent
{
  public:
    explicit HeapEvent(std::function<void()> fn,
                       int priority = Event::defaultPrio)
        : fn(std::move(fn)), _priority(priority)
    {
    }

    bool scheduled() const { return _scheduled; }
    Cycles when() const { return _when; }
    int priority() const { return _priority; }

  private:
    friend class HeapEventQueue;

    std::function<void()> fn;
    int _priority;
    Cycles _when = 0;
    std::uint64_t _sequence = 0;
    bool _scheduled = false;
};

class HeapEventQueue
{
  public:
    Cycles curCycle() const { return _curCycle; }
    bool empty() const { return live == 0; }
    std::size_t pending() const { return live; }
    std::size_t storedEntries() const { return heap.size(); }

    void
    schedule(HeapEvent *event, Cycles when)
    {
        if (event->_scheduled || when < _curCycle)
            throw std::logic_error("HeapEventQueue: bad schedule");
        event->_when = when;
        event->_sequence = nextSequence++;
        event->_scheduled = true;
        heap.push_back(
            Entry{when, event->_priority, event->_sequence, event});
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        ++live;
    }

    void
    deschedule(HeapEvent *event)
    {
        if (!event->_scheduled)
            throw std::logic_error("HeapEventQueue: bad deschedule");
        cancelled.insert(event->_sequence);
        event->_scheduled = false;
        --live;
        if (cancelled.size() > live) {
            const auto stale = [this](const Entry &entry) {
                return cancelled.count(entry.sequence) != 0;
            };
            heap.erase(std::remove_if(heap.begin(), heap.end(), stale),
                       heap.end());
            std::make_heap(heap.begin(), heap.end(), std::greater<>{});
            cancelled.clear();
        }
    }

    void
    reschedule(HeapEvent *event, Cycles when)
    {
        if (event->_scheduled)
            deschedule(event);
        schedule(event, when);
    }

    Cycles
    run(Cycles limit = EventQueue::forever)
    {
        while (purgeStale() && heap.front().when <= limit)
            serviceOne();
        if (limit != EventQueue::forever && _curCycle < limit)
            _curCycle = limit;
        return _curCycle;
    }

    void
    step()
    {
        if (!purgeStale())
            return;
        const Cycles cycle = heap.front().when;
        while (purgeStale() && heap.front().when == cycle)
            serviceOne();
    }

  private:
    struct Entry
    {
        Cycles when;
        int priority;
        std::uint64_t sequence;
        HeapEvent *event;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            if (priority != other.priority)
                return priority > other.priority;
            return sequence > other.sequence;
        }
    };

    /** Pop cancelled entries off the top; true when a live one is
     *  left at the front. */
    bool
    purgeStale()
    {
        while (!heap.empty()) {
            const auto it = cancelled.find(heap.front().sequence);
            if (it == cancelled.end())
                return true;
            cancelled.erase(it);
            std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
            heap.pop_back();
        }
        return false;
    }

    void
    serviceOne()
    {
        const Entry entry = heap.front();
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        heap.pop_back();
        _curCycle = entry.when;
        entry.event->_scheduled = false;
        --live;
        entry.event->fn();
    }

    std::vector<Entry> heap;
    std::unordered_set<std::uint64_t> cancelled;
    Cycles _curCycle = 0;
    std::uint64_t nextSequence = 0;
    std::size_t live = 0;
};

} // namespace capcheck::test

#endif // CAPCHECK_TESTS_SIM_HEAP_EVENTQ_HH
