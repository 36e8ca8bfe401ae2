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
TickingObject::TickEvent::process()
{
    if (owner.tick())
        owner.activate(1);
}

std::string
TickingObject::TickEvent::description() const
{
    return "tick:" + owner.name();
}

} // namespace capcheck
