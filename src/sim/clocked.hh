/**
 * @file
 * Self-scheduling clocked components. A TickingObject owns a tick event;
 * it runs once per cycle while active and deschedules itself when idle,
 * so the event queue can skip dead time. A tick that asks for the next
 * cycle while nothing else is due before it continues inline, without
 * a queue round trip (EventQueue::continueInline).
 */

#ifndef CAPCHECK_SIM_CLOCKED_HH
#define CAPCHECK_SIM_CLOCKED_HH

#include <string>
#include <vector>

#include "base/stats.hh"
#include "sim/eventq.hh"

namespace capcheck
{

class PortBase;

/**
 * Base class for named simulated objects; owns a stats group nested under
 * its parent's, and the list of ports the object exposes (each PortBase
 * registers itself on construction), which is what lets an elaborator
 * resolve "component.port" names without per-component glue.
 */
class SimObject
{
  public:
    SimObject(EventQueue &eq, std::string name,
              stats::StatGroup *parent_stats);
    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    EventQueue &eventq() { return eq; }
    Cycles curCycle() const { return eq.curCycle(); }
    stats::StatGroup &statGroup() { return stats; }

    /** Called by PortBase on construction; rejects duplicate names. */
    void registerPort(PortBase &port);

    /** Port by local name ("mem_side"); nullptr when absent. */
    PortBase *findPort(const std::string &local_name) const;

    /** Exposed ports, in declaration order. */
    const std::vector<PortBase *> &ports() const { return _ports; }

  protected:
    EventQueue &eq;

  private:
    std::string _name;
    std::vector<PortBase *> _ports;

  protected:
    stats::StatGroup stats;
};

/**
 * A SimObject evaluated once per cycle while it has work to do.
 */
class TickingObject : public SimObject
{
  public:
    TickingObject(EventQueue &eq, std::string name,
                  stats::StatGroup *parent_stats,
                  int tick_priority = Event::defaultPrio);
    ~TickingObject() override;

    /**
     * Per-cycle evaluation.
     * @return true to tick again next cycle, false to go idle.
     */
    virtual bool tick() = 0;

    /** Ensure the object ticks on cycle curCycle() + @p delta. */
    void activate(Cycles delta = 1);

    /** Make cycle @p when (>= curCycle()) the next tick, moving a
     *  pending tick earlier or later; one already there stays put. */
    void tickAt(Cycles when);

    /** Cancel the pending tick, if any. */
    void deactivate();

    bool active() const { return tickEvent.scheduled(); }

  protected:
    /** Tick at @p priority from now on; only while not active. */
    void setTickPriority(int priority) { tickEvent.setPriority(priority); }

  private:
    class TickEvent : public Event
    {
      public:
        TickEvent(TickingObject &owner, int priority)
            : Event(priority), owner(owner)
        {
        }

        void process() override;
        std::string description() const override;

      private:
        TickingObject &owner;
    };

    TickEvent tickEvent;
};

} // namespace capcheck

#endif // CAPCHECK_SIM_CLOCKED_HH
