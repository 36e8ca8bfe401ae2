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
 * Storage is one indexed binary min-heap over every pending (cycle,
 * priority, sequence) entry. Each Event records its heap slot, so
 * deschedule removes its entry in O(log n) and nothing stale is left
 * behind. tests/sim/eventq_stress_test.cc drives the queue in lockstep
 * with a sorted-set model as its reference.
 */

#ifndef CAPCHECK_SIM_EVENTQ_HH
#define CAPCHECK_SIM_EVENTQ_HH

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
    /** Index of the event's entry in the queue's heap while scheduled. */
    std::size_t _slot = 0;
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
    bool empty() const { return heap.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return heap.size(); }

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
     * advances to @p when (firing the cycle probe, as a dispatch
     * would) and the run counts one more dispatch; the caller then
     * runs its work inline. Never inside step(), whose caller expects
     * one cycle's events.
     */
    bool continueInline(Cycles when, int priority);

    /**
     * Fired whenever simulated time advances, with the new cycle.
     * Events within one cycle fire between two notifications; the
     * stats sampler keys its snapshots off this probe.
     */
    probe::ProbePoint<Cycles> &cycleProbe() { return _cycleProbe; }

  private:
    /** A heap entry: the event's ordering key next to the event. */
    struct Entry
    {
        Cycles when;
        int priority;
        std::uint64_t sequence;
        Event *event;

        bool
        operator<(const Entry &other) const
        {
            if (when != other.when)
                return when < other.when;
            if (priority != other.priority)
                return priority < other.priority;
            return sequence < other.sequence;
        }
    };

    /** Pop and dispatch the earliest pending event; call only when
     *  !empty(). */
    void serviceOne();
    /** Advance time to @p when and notify the cycle probe. */
    void advanceTo(Cycles when);
    /** Remove the entry at @p slot, refilling the hole with the last
     *  entry. */
    void removeAt(std::size_t slot);
    /** Store @p entry at @p slot and record the slot in its event. */
    void place(std::size_t slot, const Entry &entry);
    /** Move @p entry from the hole at @p slot towards the root, or
     *  towards the leaves, until the heap is ordered again. */
    void siftUp(std::size_t slot, const Entry &entry);
    void siftDown(std::size_t slot, const Entry &entry);
    /** Every slot's back-index is right and every parent is ordered
     *  before its children (PARANOID checks). */
    bool wellFormed() const;

    /** Min-heap in (cycle, priority, sequence) order; entry i's
     *  children sit at 2i + 1 and 2i + 2. */
    std::vector<Entry> heap;
    Cycles _curCycle = 0;
    /** Last cycle an inline continuation may reach: run()'s limit
     *  while it runs; outside run() (and inside step()) no inline
     *  continuation is allowed at all. */
    Cycles inlineLimit = 0;
    bool inlineAllowed = false;
    std::uint64_t nextSequence = 0;
    probe::ProbePoint<Cycles> _cycleProbe{"eventq.cycle"};
};

} // namespace capcheck

#endif // CAPCHECK_SIM_EVENTQ_HH
