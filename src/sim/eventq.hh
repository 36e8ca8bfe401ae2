/**
 * @file
 * Discrete-event simulation kernel. Time is measured in clock cycles of
 * the single system clock domain (the paper's prototype runs the CPU,
 * interconnect, CapChecker and accelerators off one clock).
 *
 * Events scheduled for the same cycle fire in (priority, sequence) order,
 * which keeps the simulation deterministic regardless of container
 * internals.
 *
 * Storage is a calendar queue: a power-of-two ring of per-cycle
 * buckets for events within the ring window, plus a min-heap for the
 * rare far-future events. Each bucket is an intrusive doubly linked
 * list through Event, kept sorted by (priority, sequence): a fresh
 * schedule carries the largest sequence yet, so insertion walks back
 * from the tail only past entries of higher priority, and deschedule
 * unlinks in O(1). It dispatches in exactly the order of one binary
 * heap over every (cycle, priority, sequence) entry —
 * tests/sim/eventq_stress_test.cc drives such a heap as its reference
 * model.
 */

#ifndef CAPCHECK_SIM_EVENTQ_HH
#define CAPCHECK_SIM_EVENTQ_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/probe.hh"
#include "base/types.hh"

namespace capcheck
{

class EventQueue;

/**
 * A schedulable event. Subclass and override process(), or use
 * LambdaEvent for ad-hoc callbacks.
 */
class Event
{
  public:
    /** Standard priorities; lower values fire first within a cycle. */
    enum Priority : int
    {
        responsePrio = 10, ///< memory responses arrive first
        checkPrio = 20,    ///< protection checks
        arbitratePrio = 30,///< interconnect arbitration
        requestPrio = 40,  ///< new requests issue
        defaultPrio = 50,
        statsPrio = 90,
    };

    explicit Event(int priority = defaultPrio) : _priority(priority) {}

    /**
     * Destroying an event that is still scheduled is a hard error —
     * the queue would be left holding a dangling pointer, so this
     * aborts (destructors cannot throw). Deschedule first. A
     * descheduled event may be destroyed immediately: the queue never
     * touches it again.
     */
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    virtual void process() = 0;

    /** Human-readable event description, used in panic messages. */
    virtual std::string description() const { return "generic event"; }

    bool scheduled() const { return _scheduled; }
    Cycles when() const { return _when; }
    int priority() const { return _priority; }

    /** Change the priority; only while not scheduled. */
    void setPriority(int priority);

  private:
    friend class EventQueue;

    Cycles _when = 0;
    std::uint64_t _sequence = 0;
    /** Neighbours in the event's ring bucket; unused in overflow. */
    Event *_prev = nullptr;
    Event *_next = nullptr;
    int _priority;
    bool _scheduled = false;
};

/** Event wrapping a std::function. */
class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(std::function<void()> fn,
                         int priority = defaultPrio)
        : Event(priority), fn(std::move(fn))
    {
    }

    void process() override { fn(); }
    std::string description() const override { return "lambda event"; }

  private:
    std::function<void()> fn;
};

/**
 * The event queue. One instance per simulated system.
 */
class EventQueue
{
  public:
    /**
     * Width of the calendar window in cycles: an event due fewer than
     * ringSize cycles ahead of curCycle() sits in its cycle's ring
     * bucket; anything later waits in the overflow heap.
     */
    static constexpr std::size_t ringSize = 1024;

    /** run() limit meaning "no horizon": drain and stop at the last
     *  processed event's cycle. */
    static constexpr Cycles forever = ~Cycles{0};

    /** Current simulation time in cycles. */
    Cycles curCycle() const { return _curCycle; }

    /** Schedule @p event at absolute cycle @p when (>= curCycle()). */
    void schedule(Event *event, Cycles when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *event);

    /** Re-schedule an already scheduled event to a new time. */
    void reschedule(Event *event, Cycles when);

    /** True when no events are pending. */
    bool empty() const { return live == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return live; }

    /**
     * Entries physically held: the pending events plus descheduled
     * overflow entries not yet purged. The compaction bound:
     * storedEntries() never exceeds 2 * pending() + 1, however
     * reschedule-heavy the workload.
     */
    std::size_t storedEntries() const { return ringLive + overflow.size(); }

    /**
     * Run until the queue drains or @p limit cycles elapse. With a
     * finite limit, time always advances to @p limit (and the cycle
     * probe fires) even when the queue drains early, so periodic
     * observers see their final window.
     * @return the current cycle after the run.
     */
    Cycles run(Cycles limit = forever);

    /** Process events for exactly one cycle (the earliest pending one). */
    void step();

    /**
     * Inline continuation: may the event being dispatched run again
     * on cycle @p when at @p priority without a queue round trip? Yes
     * only inside run(), with @p when (> curCycle()) within its limit,
     * and while no queued event is ordered at or before (@p when,
     * @p priority): a fresh schedule would carry the newest sequence,
     * so any queued event of that cycle and priority goes first. That
     * is exactly the order the queue would produce. On success, time
     * advances to @p when (pulling overflow entries and firing the
     * cycle probe, as a dispatch would) and the run counts one more
     * dispatch; the caller then runs its work inline. Never inside
     * step(), whose caller expects one cycle's events.
     */
    bool continueInline(Cycles when, int priority);

    /**
     * Fired whenever simulated time advances, with the new cycle.
     * Events within one cycle fire between two notifications; the
     * stats sampler keys its snapshots off this probe.
     */
    probe::ProbePoint<Cycles> &cycleProbe() { return _cycleProbe; }

  private:
    /** An overflow heap entry; a null event marks a descheduled one. */
    struct Entry
    {
        Cycles when;
        int priority;
        std::uint64_t sequence;
        Event *event;

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

    /** One cycle's ring entries, sorted by (priority, sequence). */
    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    /** Cycle of the earliest pending event; call only when !empty(). */
    Cycles frontCycle();
    /** Pop and dispatch the earliest pending event; call right after
     *  frontCycle(). */
    void serviceOne();
    /** Count one dispatch on sim/dispatch under a profile session. */
    static void countDispatch();
    /** Advance time to @p when, pull the overflow entries the window
     *  now covers into the ring and notify the cycle probe. */
    void advanceTo(Cycles when);
    /** Sorted insert of a scheduled event into its cycle's bucket. */
    void linkRing(Event *event);
    void unlinkRing(Event *event);
    /** Drop descheduled overflow entries wholesale once they
     *  outnumber pending events. */
    void maybeCompact();
    /** Ring entries counted by walking the buckets, checking each
     *  bucket's order on the way (PARANOID checks). */
    std::size_t countRing() const;
    /** First occupied ring position at or cyclically after @p pos;
     *  ringSize when the whole ring is empty. */
    std::size_t nextOccupied(std::size_t pos) const;
    void markOccupied(std::size_t pos)
    {
        occupied[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    }
    void clearOccupied(std::size_t pos)
    {
        occupied[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    }

    /**
     * The calendar queue. ring[when % ringSize] holds the events due
     * on cycle `when` for every `when` in [curCycle(), curCycle() +
     * ringSize), so distinct cycles never collide on a bucket.
     * Everything further out lands in the overflow min-heap, in full
     * (cycle, priority, sequence) order, and moves into the ring by
     * the same sorted insert once time brings its cycle inside the
     * window. Every ring entry is therefore due before every overflow
     * entry, and an overflow entry was scheduled before any ring entry
     * of its cycle (time only advances), so it carries the lower
     * sequence and the sorted insert keeps the heap's exact order.
     */
    std::array<Bucket, ringSize> ring{};
    /**
     * Occupancy bitmap over the ring: bit (when % ringSize) is set
     * while that bucket holds an event. The front scan uses it to jump
     * to the next non-empty bucket with a count-trailing-zeros walk,
     * so sparse schedules (delay-heavy workloads with events many
     * cycles apart) cost O(1) per event instead of a bucket-by-bucket
     * probe across the gap.
     */
    std::array<std::uint64_t, ringSize / 64> occupied{};
    std::vector<Entry> overflow;
    /** Lower bound on the earliest cycle holding a ring entry; the
     *  front scan advances it monotonically and schedule() lowers it,
     *  so scans amortize to O(1) per cycle of simulated time. */
    Cycles ringCursor = 0;
    /** Events currently linked into the ring. */
    std::size_t ringLive = 0;
    /**
     * Descheduled entries still stored in the overflow heap.
     * Deschedule nulls the entry's Event pointer in place; the entry
     * is dropped when it surfaces or by compaction, and never
     * dereferenced, so the owner may destroy a descheduled event at
     * any time.
     */
    std::size_t staleCount = 0;
    Cycles _curCycle = 0;
    /** Last cycle an inline continuation may reach: run()'s limit
     *  while it runs; outside run() (and inside step()) no inline
     *  continuation is allowed at all. */
    Cycles inlineLimit = 0;
    bool inlineAllowed = false;
    std::uint64_t nextSequence = 0;
    std::size_t live = 0;
    probe::ProbePoint<Cycles> _cycleProbe{"eventq.cycle"};
};

} // namespace capcheck

#endif // CAPCHECK_SIM_EVENTQ_HH
