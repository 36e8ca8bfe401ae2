#include "sim/eventq.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <exception>

#include "base/invariant.hh"
#include "base/logging.hh"
#include "obs/prof.hh"

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

void
Event::setPriority(int priority)
{
    if (_scheduled)
        panic("changing the priority of scheduled event: %s",
              description().c_str());
    _priority = priority;
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
    if (when - _curCycle < ringSize) {
        linkRing(event);
    } else {
        overflow.push_back(
            Entry{when, event->priority(), event->_sequence, event});
        std::push_heap(overflow.begin(), overflow.end(),
                       std::greater<>{});
    }
    ++live;
    PARANOID_INVARIANT(countRing() + overflow.size() == live + staleCount,
                       "live-count conservation after schedule");
}

void
EventQueue::linkRing(Event *event)
{
    const std::size_t pos = event->_when & (ringSize - 1);
    Bucket &bucket = ring[pos];
    // Walk back from the tail past the entries of higher priority.
    // Equal-priority entries stay ahead: a fresh schedule carries the
    // largest sequence yet, and an entry migrating from the overflow
    // heap finds its bucket holding only the entries of its cycle that
    // migrated just before it, in heap order.
    Event *after = bucket.tail;
    while (after && after->_priority > event->_priority)
        after = after->_prev;
    event->_prev = after;
    event->_next = after ? after->_next : bucket.head;
    (event->_next ? event->_next->_prev : bucket.tail) = event;
    (after ? after->_next : bucket.head) = event;
    markOccupied(pos);
    if (ringLive == 0 || event->_when < ringCursor)
        ringCursor = event->_when;
    ++ringLive;
}

void
EventQueue::unlinkRing(Event *event)
{
    const std::size_t pos = event->_when & (ringSize - 1);
    Bucket &bucket = ring[pos];
    (event->_prev ? event->_prev->_next : bucket.head) = event->_next;
    (event->_next ? event->_next->_prev : bucket.tail) = event->_prev;
    event->_prev = event->_next = nullptr;
    if (!bucket.head)
        clearOccupied(pos);
    --ringLive;
}

void
EventQueue::deschedule(Event *event)
{
    if (!event->_scheduled)
        panic("descheduling non-scheduled event: %s",
              event->description().c_str());
    if (event->_when - _curCycle < ringSize) {
        unlinkRing(event);
    } else {
        // Far-future entries are deleted lazily: null the Event
        // pointer in place. The entry is dropped when it surfaces or
        // by compaction, and never dereferenced, so the owner is free
        // to destroy a descheduled event immediately.
        const auto it = std::find_if(
            overflow.begin(), overflow.end(),
            [event](const Entry &entry) { return entry.event == event; });
        INVARIANT(it != overflow.end(), "descheduled event not stored: %s",
                  event->description().c_str());
        it->event = nullptr;
        ++staleCount;
    }
    event->_scheduled = false;
    --live;
    maybeCompact();
    PARANOID_INVARIANT(countRing() + overflow.size() == live + staleCount,
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
    // Amortized O(1): a compaction costs O(overflow) but only fires
    // once stale entries exceed live ones, so the next trigger needs
    // the (now at most half-sized) storage to degrade by half again.
    // Deschedules and dispatches both check, so the bound holds
    // between any two queue operations.
    if (staleCount <= live)
        return;
    overflow.erase(std::remove_if(overflow.begin(), overflow.end(),
                                  [](const Entry &entry) {
                                      return entry.event == nullptr;
                                  }),
                   overflow.end());
    std::make_heap(overflow.begin(), overflow.end(), std::greater<>{});
    staleCount = 0;
}

std::size_t
EventQueue::countRing() const
{
    std::size_t count = 0;
    for (const Bucket &bucket : ring) {
        for (const Event *e = bucket.head; e; e = e->_next) {
            ++count;
            const Event *next = e->_next;
            INVARIANT(!next || (next->_when == e->_when &&
                                (next->_priority > e->_priority ||
                                 (next->_priority == e->_priority &&
                                  next->_sequence > e->_sequence))),
                      "ring bucket out of (priority, sequence) order");
        }
    }
    return count;
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

Cycles
EventQueue::frontCycle()
{
    if (ringLive == 0) {
        // Only far-future events remain: the overflow top, once the
        // descheduled entries that surfaced there are popped.
        INVARIANT(overflow.size() > staleCount,
                  "front scan found no event with %zu pending", live);
        while (overflow.front().event == nullptr) {
            std::pop_heap(overflow.begin(), overflow.end(),
                          std::greater<>{});
            overflow.pop_back();
            --staleCount;
        }
        return overflow.front().when;
    }
    // Every ring entry is due before every overflow entry. Advance the
    // cursor to the first occupied bucket: the occupancy bitmap jumps
    // straight there, so sparse schedules do not pay a probe per
    // empty cycle.
    if (ringCursor < _curCycle)
        ringCursor = _curCycle;
    const std::size_t pos = ringCursor & (ringSize - 1);
    if (!ring[pos].head) {
        const std::size_t next = nextOccupied(pos);
        INVARIANT(next < ringSize,
                  "ring scan found no entry with %zu linked", ringLive);
        // Cyclic distance forward; every ring entry is within the
        // window, so the position maps back to one cycle.
        ringCursor += (next - pos) & (ringSize - 1);
    }
    return ringCursor;
}

void
EventQueue::advanceTo(Cycles when)
{
    _curCycle = when;
    // Overflow entries the window now covers move into the ring, in
    // heap order, so every ring entry stays due before every overflow
    // entry.
    while (!overflow.empty() && overflow.front().when - when < ringSize) {
        Event *event = overflow.front().event;
        std::pop_heap(overflow.begin(), overflow.end(), std::greater<>{});
        overflow.pop_back();
        if (event)
            linkRing(event);
        else
            --staleCount;
    }
    _cycleProbe.notify(when);
}

void
EventQueue::serviceOne()
{
    Event *event;
    if (ringLive > 0) {
        event = ring[ringCursor & (ringSize - 1)].head;
        unlinkRing(event);
    } else {
        event = overflow.front().event;
        std::pop_heap(overflow.begin(), overflow.end(),
                      std::greater<>{});
        overflow.pop_back();
    }
    INVARIANT(event->_scheduled && event->_when >= _curCycle,
              "event time not monotonic (%llu < %llu)",
              static_cast<unsigned long long>(event->_when),
              static_cast<unsigned long long>(_curCycle));

    event->_scheduled = false;
    --live;
    maybeCompact();
    if (event->_when != _curCycle)
        advanceTo(event->_when);
    PARANOID_INVARIANT(countRing() + overflow.size() == live + staleCount,
                       "live-count conservation after pop");
    countDispatch();
    event->process();
}

void
EventQueue::countDispatch()
{
    // Event-dispatch boundary: a profile session counts the dispatch
    // on sim/dispatch without timing it. The component scopes inside
    // process() time their own work; the rest stays in eventq.run.
    // The disabled path is a TLS load + branch.
    if (prof::RunProfile *const profile = prof::current()) {
        static const prof::SiteId dispatchSite =
            prof::registerSite("sim", "dispatch");
        profile->count(dispatchSite);
    }
}

bool
EventQueue::continueInline(Cycles when, int priority)
{
    if (!inlineAllowed || when > inlineLimit || when <= _curCycle)
        return false;
    if (live != 0) {
        const Cycles front = frontCycle();
        if (front < when)
            return false;
        if (front == when) {
            const int front_priority =
                ringLive > 0 ? ring[front & (ringSize - 1)].head->_priority
                             : overflow.front().priority;
            if (front_priority <= priority)
                return false;
        }
    }
    advanceTo(when);
    countDispatch();
    return true;
}

Cycles
EventQueue::run(Cycles limit)
{
    PROF_SCOPE("sim", "eventq.run");
    // Inline continuation is open for exactly this loop, also when a
    // SimError unwinds out of it.
    struct InlineWindow
    {
        EventQueue &q;
        ~InlineWindow() { q.inlineAllowed = false; }
    } window{*this};
    inlineAllowed = true;
    inlineLimit = limit;
    while (live != 0 && frontCycle() <= limit)
        serviceOne();
    // The queue drained or the next event lies beyond the horizon:
    // with a finite limit, time still advances to the horizon (and the
    // cycle probe fires) so periodic observers see their final window.
    if (limit != forever && _curCycle < limit)
        advanceTo(limit);
    return _curCycle;
}

void
EventQueue::step()
{
    if (live == 0)
        return;
    const Cycles cycle = frontCycle();
    while (live != 0 && frontCycle() == cycle)
        serviceOne();
}

} // namespace capcheck
