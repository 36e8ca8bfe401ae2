#include "sim/eventq.hh"

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
    event->_scheduled = true;
    heap.emplace_back();
    siftUp(heap.size() - 1,
           Entry{when, event->priority(), nextSequence++, event});
    PARANOID_INVARIANT(wellFormed(), "heap malformed after schedule");
}

void
EventQueue::deschedule(Event *event)
{
    if (!event->_scheduled)
        panic("descheduling non-scheduled event: %s",
              event->description().c_str());
    INVARIANT(event->_slot < heap.size() &&
                  heap[event->_slot].event == event,
              "descheduled event not stored: %s",
              event->description().c_str());
    // The entry leaves the heap at once, so the owner is free to
    // destroy a descheduled event immediately.
    removeAt(event->_slot);
    event->_scheduled = false;
    PARANOID_INVARIANT(wellFormed(), "heap malformed after deschedule");
}

void
EventQueue::reschedule(Event *event, Cycles when)
{
    if (event->_scheduled)
        deschedule(event);
    schedule(event, when);
}

void
EventQueue::place(std::size_t slot, const Entry &entry)
{
    heap[slot] = entry;
    entry.event->_slot = slot;
}

void
EventQueue::siftUp(std::size_t slot, const Entry &entry)
{
    while (slot > 0) {
        const std::size_t parent = (slot - 1) / 2;
        if (!(entry < heap[parent]))
            break;
        place(slot, heap[parent]);
        slot = parent;
    }
    place(slot, entry);
}

void
EventQueue::siftDown(std::size_t slot, const Entry &entry)
{
    const std::size_t size = heap.size();
    while (2 * slot + 1 < size) {
        std::size_t child = 2 * slot + 1;
        if (child + 1 < size && heap[child + 1] < heap[child])
            ++child;
        if (!(heap[child] < entry))
            break;
        place(slot, heap[child]);
        slot = child;
    }
    place(slot, entry);
}

void
EventQueue::removeAt(std::size_t slot)
{
    const Entry last = heap.back();
    heap.pop_back();
    if (slot == heap.size())
        return;
    // The last entry refills the hole; it may belong above it (when
    // the hole was in another subtree) or below it.
    if (slot > 0 && last < heap[(slot - 1) / 2])
        siftUp(slot, last);
    else
        siftDown(slot, last);
}

bool
EventQueue::wellFormed() const
{
    for (std::size_t slot = 0; slot < heap.size(); ++slot) {
        const Entry &entry = heap[slot];
        if (entry.event->_slot != slot || !entry.event->_scheduled ||
            entry.event->_when != entry.when ||
            (slot > 0 && entry < heap[(slot - 1) / 2]))
            return false;
    }
    return true;
}

void
EventQueue::advanceTo(Cycles when)
{
    _curCycle = when;
    _cycleProbe.notify(when);
}

void
EventQueue::serviceOne()
{
    Event *const event = heap.front().event;
    INVARIANT(event->_scheduled && event->_when >= _curCycle,
              "event time not monotonic (%llu < %llu)",
              static_cast<unsigned long long>(event->_when),
              static_cast<unsigned long long>(_curCycle));

    removeAt(0);
    event->_scheduled = false;
    if (event->_when != _curCycle)
        advanceTo(event->_when);
    PARANOID_INVARIANT(wellFormed(), "heap malformed after pop");
    // Event-dispatch boundary: counted, never timed. The component
    // scopes inside process() time their own work; the rest stays in
    // eventq.run.
    PROF_COUNT("sim", "dispatch");
    event->process();
}

bool
EventQueue::continueInline(Cycles when, int priority)
{
    if (!inlineAllowed || when > inlineLimit || when <= _curCycle)
        return false;
    if (!heap.empty()) {
        const Entry &front = heap.front();
        if (front.when < when ||
            (front.when == when && front.priority <= priority))
            return false;
    }
    advanceTo(when);
    PROF_COUNT("sim", "dispatch");
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
    while (!heap.empty() && heap.front().when <= limit)
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
    if (heap.empty())
        return;
    const Cycles cycle = heap.front().when;
    while (!heap.empty() && heap.front().when == cycle)
        serviceOne();
}

} // namespace capcheck
