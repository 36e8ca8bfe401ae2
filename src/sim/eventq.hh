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
 * buckets (each a small (priority, sequence) heap) for events within
 * the ring window, plus a min-heap for the rare far-future events.
 * Near-term scheduling is a bounded push into a reused vector, with
 * no balanced-tree nodes or hashing on the hot path. It dispatches in
 * exactly the order of one binary heap over every (cycle, priority,
 * sequence) entry — tests/sim/eventq_stress_test.cc drives such a
 * heap as its reference model. Descheduled entries are deleted lazily
 * and storage is compacted when stale entries outnumber live ones, so
 * reschedule-heavy components cannot grow the queue without bound.
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
#include "obs/prof.hh"

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
     * descheduled event may be destroyed immediately: the queue tracks
     * its stale entry by sequence number and never touches the event
     * again.
     */
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    virtual void process() = 0;

    /** Human-readable event description, used in panic messages. */
    virtual std::string description() const { return "generic event"; }

    /**
     * Profiler site this event's dispatch is attributed to, keying
     * the (component kind, event kind) pair. The default is a shared
     * "sim"/"event.generic" site; components whose dispatch dominates
     * override it (TickingObject ticks, memory responses). Only
     * consulted while a profile session is active on the servicing
     * thread, so overrides may lazily register and cache their site.
     */
    virtual prof::SiteId profSite() const;

    bool scheduled() const { return _scheduled; }
    Cycles when() const { return _when; }
    int priority() const { return _priority; }

  private:
    friend class EventQueue;

    Cycles _when = 0;
    std::uint64_t _sequence = 0;
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
    EventQueue() : ring(ringSize) {}

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

    /** True when no live events remain (stale entries ignored). */
    bool empty() const { return live == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return live; }

    /**
     * Entries physically held (live + not-yet-purged stale). The
     * compaction bound: storedEntries() never exceeds 2 * pending()
     * + 1, however reschedule-heavy the workload.
     */
    std::size_t storedEntries() const;

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
     * Fired whenever simulated time advances, with the new cycle.
     * Events within one cycle fire between two notifications; the
     * stats sampler keys its snapshots off this probe.
     */
    probe::ProbePoint<Cycles> &cycleProbe() { return _cycleProbe; }

  private:
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

    void serviceOne();
    bool purgeStale();
    /** Earliest live entry; call only after purgeStale() returned
     *  true. */
    const Entry &front() const;
    /** Drop stale entries wholesale once they outnumber live ones. */
    void maybeCompact();
    /** True when the next entry to fire comes from the ring rather
     *  than the overflow heap. Call after purgeStale(). */
    bool frontInRing() const;
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
     * The calendar queue. Events within ringSize cycles of schedule
     * time go into ring[when % ringSize], a small min-heap of one
     * cycle's entries ordered by (priority, sequence); within the
     * window, distinct cycles can never collide on a bucket.
     * Everything further out lands in the overflow min-heap, in full
     * (cycle, priority, sequence) order, and is popped from there when
     * it becomes the global front — by then the ring holds nothing
     * earlier, so overflow entries never migrate.
     */
    static constexpr std::size_t ringSize = 1024;
    std::vector<std::vector<Entry>> ring;
    /**
     * Occupancy bitmap over the ring: bit (when % ringSize) is set
     * while that bucket stores any entry (live or tombstone). The
     * front scan uses it to jump to the next non-empty bucket with a
     * count-trailing-zeros walk, so sparse schedules (delay-heavy
     * workloads with events many cycles apart) cost O(1) per event
     * instead of a bucket-by-bucket probe across the gap.
     */
    std::array<std::uint64_t, ringSize / 64> occupied{};
    std::vector<Entry> overflow;
    /** Lower bound on the earliest cycle holding a ring entry; the
     *  front scan advances it monotonically and schedule() lowers it,
     *  so scans amortize to O(1) per cycle of simulated time. */
    Cycles ringCursor = 0;
    /** Live (non-tombstone) entries currently in the ring. */
    std::size_t ringLive = 0;
    /**
     * Tombstoned entries still stored in ring + overflow. Deschedule
     * finds the stored entry directly from the event's cycle and nulls
     * its Event pointer in place, which keeps hashing off the hot
     * path; a tombstone is never dereferenced, so the owner may
     * destroy a descheduled event at any time.
     */
    std::size_t staleCount = 0;
    Cycles _curCycle = 0;
    std::uint64_t nextSequence = 0;
    std::size_t live = 0;
    probe::ProbePoint<Cycles> _cycleProbe{"eventq.cycle"};
};

} // namespace capcheck

#endif // CAPCHECK_SIM_EVENTQ_HH
