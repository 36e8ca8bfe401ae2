#include "sim/eventq.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <exception>

#include "base/invariant.hh"
#include "base/logging.hh"

namespace capcheck
{

Event::~Event()
{
    // The owner must deschedule before destruction; the queue holds raw
    // pointers, so a still-scheduled event would leave a dangling entry
    // that serviceOne() dereferences later. A destructor cannot throw,
    // so this is a hard abort rather than a panic() -- except while a
    // SimError is already unwinding the stack, where owners being torn
    // down mid-simulation is expected collateral and aborting would
    // hide the original error from the caller.
    if (_scheduled) {
        if (std::uncaught_exceptions() > 0) {
            detail::logMessage(
                "warn", detail::formatString(
                            "event destroyed while scheduled during "
                            "error unwind: %s",
                            description().c_str()));
            return;
        }
        detail::logMessage(
            "panic", detail::formatString(
                         "event destroyed while scheduled: %s",
                         description().c_str()));
        std::abort();
    }
}

prof::SiteId
Event::profSite() const
{
    static const prof::SiteId site =
        prof::registerSite("sim", "event.generic");
    return site;
}

std::size_t
EventQueue::storedEntries() const
{
    std::size_t total = overflow.size();
    for (const std::vector<Entry> &bucket : ring)
        total += bucket.size();
    return total;
}

void
EventQueue::schedule(Event *event, Cycles when)
{
    if (event->_scheduled)
        panic("scheduling already-scheduled event: %s",
              event->description().c_str());
    if (when < _curCycle)
        panic("scheduling event in the past (%llu < %llu): %s",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_curCycle),
              event->description().c_str());

    event->_when = when;
    event->_sequence = nextSequence++;
    event->_scheduled = true;
    const Entry entry{when, event->priority(), event->_sequence, event};
    if (when - _curCycle < ringSize) {
        std::vector<Entry> &bucket = ring[when & (ringSize - 1)];
        bucket.push_back(entry);
        std::push_heap(bucket.begin(), bucket.end(), std::greater<>{});
        markOccupied(when & (ringSize - 1));
        if (ringLive == 0 || when < ringCursor)
            ringCursor = when;
        ++ringLive;
    } else {
        overflow.push_back(entry);
        std::push_heap(overflow.begin(), overflow.end(),
                       std::greater<>{});
    }
    ++live;
    PARANOID_INVARIANT(storedEntries() == live + staleCount,
                       "live-count conservation after schedule");
}

void
EventQueue::deschedule(Event *event)
{
    if (!event->_scheduled)
        panic("descheduling non-scheduled event: %s",
              event->description().c_str());
    // Lazy deletion: the entry's location is known from its cycle, so
    // tombstone it in place (null the Event pointer); it is dropped
    // when it surfaces, or wholesale by compaction once stale entries
    // outnumber live ones. The Event is never dereferenced through the
    // stale entry, so the owner is free to destroy a descheduled event
    // immediately.
    const auto tombstone = [event](std::vector<Entry> &entries) {
        for (Entry &e : entries) {
            if (e.sequence == event->_sequence && e.event) {
                e.event = nullptr;
                return true;
            }
        }
        return false;
    };
    // In-window entries live in their cycle's bucket — but an entry
    // scheduled while its cycle was beyond the window sits in overflow
    // even after time approached, so fall through.
    bool found = event->_when - _curCycle < ringSize &&
                 tombstone(ring[event->_when & (ringSize - 1)]);
    if (found) {
        --ringLive;
    } else {
        found = tombstone(overflow);
    }
    INVARIANT(found, "descheduled event not stored: %s",
              event->description().c_str());
    ++staleCount;
    event->_scheduled = false;
    --live;
    maybeCompact();
    PARANOID_INVARIANT(storedEntries() == live + staleCount,
                       "live-count conservation after deschedule");
}

void
EventQueue::reschedule(Event *event, Cycles when)
{
    if (event->_scheduled)
        deschedule(event);
    schedule(event, when);
}

void
EventQueue::maybeCompact()
{
    // Amortized O(1): a compaction costs O(stored) but only fires once
    // stale entries exceed live ones, so the next trigger needs the
    // (now at most half-sized) storage to degrade by half again.
    if (staleCount <= live)
        return;
    const auto dead = [](const Entry &entry) {
        return entry.event == nullptr;
    };
    for (std::size_t pos = 0; pos < ringSize; ++pos) {
        std::vector<Entry> &bucket = ring[pos];
        if (bucket.empty())
            continue;
        bucket.erase(std::remove_if(bucket.begin(), bucket.end(), dead),
                     bucket.end());
        std::make_heap(bucket.begin(), bucket.end(), std::greater<>{});
        if (bucket.empty())
            clearOccupied(pos);
    }
    overflow.erase(std::remove_if(overflow.begin(), overflow.end(), dead),
                   overflow.end());
    std::make_heap(overflow.begin(), overflow.end(), std::greater<>{});
    staleCount = 0;
    INVARIANT(storedEntries() == live,
              "compaction lost events: %zu stored, %zu live",
              storedEntries(), live);
}

bool
EventQueue::purgeStale()
{
    // Overflow: pop surfaced tombstones so the top is live.
    while (!overflow.empty() && overflow.front().event == nullptr) {
        std::pop_heap(overflow.begin(), overflow.end(),
                      std::greater<>{});
        overflow.pop_back();
        --staleCount;
    }
    // Ring: advance the cursor to the first bucket with a live entry,
    // clearing surfaced tombstones along the way. The occupancy
    // bitmap jumps straight to the next non-empty bucket, so sparse
    // schedules do not pay a probe per empty cycle; the cursor is
    // monotonic between schedule() resets.
    if (ringLive > 0) {
        if (ringCursor < _curCycle)
            ringCursor = _curCycle;
        for (;;) {
            const std::size_t pos = ringCursor & (ringSize - 1);
            std::vector<Entry> &bucket = ring[pos];
            while (!bucket.empty() &&
                   bucket.front().event == nullptr) {
                std::pop_heap(bucket.begin(), bucket.end(),
                              std::greater<>{});
                bucket.pop_back();
                --staleCount;
            }
            if (!bucket.empty())
                break;
            clearOccupied(pos);
            const std::size_t next = nextOccupied(pos);
            INVARIANT(next < ringSize,
                      "ring scan found no live entry with %zu live",
                      ringLive);
            // Cyclic distance forward; every stored entry is within
            // the window, so the position maps back to one cycle.
            ringCursor += ((next - pos - 1) & (ringSize - 1)) + 1;
        }
    }
    INVARIANT((ringLive > 0 || !overflow.empty()) == (live != 0),
              "front bookkeeping out of sync with %zu live", live);
    return live != 0;
}

std::size_t
EventQueue::nextOccupied(std::size_t pos) const
{
    constexpr std::size_t numWords = ringSize / 64;
    std::size_t w = pos >> 6;
    std::uint64_t word =
        occupied[w] & (~std::uint64_t{0} << (pos & 63));
    for (std::size_t probed = 0; probed <= numWords; ++probed) {
        if (word)
            return (w << 6) +
                   static_cast<std::size_t>(std::countr_zero(word));
        w = (w + 1) & (numWords - 1);
        word = occupied[w];
    }
    return ringSize;
}

bool
EventQueue::frontInRing() const
{
    if (ringLive == 0)
        return false;
    if (overflow.empty())
        return true;
    // Both candidates are live (purgeStale cleared surfaced
    // tombstones); the full (when, priority, sequence) order decides,
    // so a ring entry and an overflow entry landing on the same cycle
    // still interleave exactly like one heap over every entry.
    return overflow.front() > ring[ringCursor & (ringSize - 1)].front();
}

const EventQueue::Entry &
EventQueue::front() const
{
    return frontInRing() ? ring[ringCursor & (ringSize - 1)].front()
                         : overflow.front();
}

void
EventQueue::serviceOne()
{
    const Entry entry = front();
    if (frontInRing()) {
        const std::size_t pos = ringCursor & (ringSize - 1);
        std::vector<Entry> &bucket = ring[pos];
        std::pop_heap(bucket.begin(), bucket.end(), std::greater<>{});
        bucket.pop_back();
        if (bucket.empty())
            clearOccupied(pos);
        --ringLive;
    } else {
        std::pop_heap(overflow.begin(), overflow.end(),
                      std::greater<>{});
        overflow.pop_back();
    }

    Event *event = entry.event;
    // purgeStale() ran just before us: the front entry must be live and
    // current, so dereferencing the pointer is safe.
    INVARIANT(event->_scheduled && event->_sequence == entry.sequence,
              "stale entry survived purge");
    INVARIANT(entry.when >= _curCycle,
              "event time not monotonic (%llu < %llu)",
              static_cast<unsigned long long>(entry.when),
              static_cast<unsigned long long>(_curCycle));

    if (entry.when != _curCycle) {
        _curCycle = entry.when;
        _cycleProbe.notify(_curCycle);
    }
    event->_scheduled = false;
    --live;
    PARANOID_INVARIANT(storedEntries() == live + staleCount,
                       "live-count conservation after pop");
    // Event-dispatch boundary: when a profile session is active on
    // this thread, attribute the dispatch to the event's site. The
    // disabled path stays a TLS load + branch with no clock reads.
    if (prof::current() != nullptr) {
        const prof::ScopeTimer scope(event->profSite());
        event->process();
    } else {
        event->process();
    }
}

Cycles
EventQueue::run(Cycles limit)
{
    PROF_SCOPE("sim", "eventq.run");
    while (purgeStale() && front().when <= limit)
        serviceOne();
    // The queue drained or the next event lies beyond the horizon:
    // with a finite limit, time still advances to the horizon (and the
    // cycle probe fires) so periodic observers see their final window.
    if (limit != forever && _curCycle < limit) {
        _curCycle = limit;
        _cycleProbe.notify(_curCycle);
    }
    return _curCycle;
}

void
EventQueue::step()
{
    if (!purgeStale())
        return;
    const Cycles cycle = front().when;
    while (purgeStale() && front().when == cycle)
        serviceOne();
}

} // namespace capcheck
