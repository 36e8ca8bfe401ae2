#include "sim/clocked.hh"

#include "sim/port.hh"

namespace capcheck
{

SimObject::SimObject(EventQueue &eq, std::string name,
                     stats::StatGroup *parent_stats)
    : eq(eq), _name(std::move(name)), stats(_name, parent_stats)
{
}

void
SimObject::registerPort(PortBase &port)
{
    if (findPort(port.localName()) != nullptr) {
        throw PortError(PortError::Kind::duplicateName,
                        "duplicate port name '" + port.fullName() + "'",
                        port.fullName());
    }
    _ports.push_back(&port);
}

PortBase *
SimObject::findPort(const std::string &local_name) const
{
    for (PortBase *p : _ports) {
        if (p->localName() == local_name)
            return p;
    }
    return nullptr;
}

TickingObject::TickingObject(EventQueue &eq, std::string name,
                             stats::StatGroup *parent_stats,
                             int tick_priority)
    : SimObject(eq, std::move(name), parent_stats),
      tickEvent(*this, tick_priority)
{
}

TickingObject::~TickingObject()
{
    if (tickEvent.scheduled())
        eq.deschedule(&tickEvent);
}

void
TickingObject::activate(Cycles delta)
{
    const Cycles when = eq.curCycle() + delta;
    if (tickEvent.scheduled()) {
        if (tickEvent.when() <= when)
            return;
        eq.deschedule(&tickEvent);
    }
    eq.schedule(&tickEvent, when);
}

void
TickingObject::tickAt(Cycles when)
{
    if (tickEvent.scheduled()) {
        if (tickEvent.when() == when)
            return;
        eq.deschedule(&tickEvent);
    }
    eq.schedule(&tickEvent, when);
}

void
TickingObject::deactivate()
{
    if (tickEvent.scheduled())
        eq.deschedule(&tickEvent);
}

void
TickingObject::TickEvent::process()
{
    // A tick that asks for the next cycle runs again right here while
    // nothing queued is due before it (EventQueue::continueInline):
    // the order is the queue's, without the round trip. A wake that
    // armed the event during the tick leaves the next tick to the
    // queue, so the object never ticks twice on one cycle.
    EventQueue &eq = owner.eq;
    while (owner.tick()) {
        if (scheduled() ||
            !eq.continueInline(eq.curCycle() + 1, priority())) {
            owner.activate(1);
            return;
        }
    }
}

std::string
TickingObject::TickEvent::description() const
{
    return "tick:" + owner.name();
}

} // namespace capcheck
