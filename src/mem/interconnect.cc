#include "mem/interconnect.hh"

#include <algorithm>

#include "base/invariant.hh"
#include "base/logging.hh"
#include "obs/prof.hh"

namespace capcheck
{

AxiInterconnect::AxiInterconnect(EventQueue &eq,
                                 stats::StatGroup *parent_stats,
                                 unsigned num_masters,
                                 unsigned max_burst, std::string name)
    : TickingObject(eq, std::move(name), parent_stats,
                    Event::arbitratePrio),
      memSidePort(*this, "mem_side",
                  static_cast<ResponseHandler &>(*this)),
      masters(num_masters), maxBurst(max_burst ? max_burst : 1),
      grants(stats, "grants", "requests granted onto the bus"),
      stallCycles(stats, "stallCycles",
                  "cycles the winning request could not move downstream")
{
    if (num_masters == 0)
        fatal("AxiInterconnect needs at least one master");
    for (unsigned i = 0; i < num_masters; ++i) {
        masters[i].port = std::make_unique<ResponsePort>(
            *this, "accel_side" + std::to_string(i),
            [this, i](const MemRequest &req) { return offer(i, req); },
            [this, i](const MemRequest &req, Cycles issued) {
                return offerAt(i, req, issued);
            },
            [this, i] { return canOffer(i); });
    }
}

namespace
{

/** Crossbar levels reachable below @p port, through any component
 *  (@p hops: components walked so far, a guard against wired
 *  cycles). */
unsigned
levelsThrough(const PortBase &port, unsigned hops)
{
    if (!port.bound())
        return 0;
    SimObject &owner = port.peerBase()->owner();
    if (hops > 64)
        fatal("request path below '%s' revisits components: the "
              "topology wires a cycle",
              owner.name().c_str());
    if (auto *xbar = dynamic_cast<AxiInterconnect *>(&owner))
        return 1 + levelsThrough(xbar->memSide(), hops + 1);
    unsigned most = 0;
    for (const PortBase *next : owner.ports()) {
        if (next->role() == PortBase::Role::request)
            most = std::max(most, levelsThrough(*next, hops + 1));
    }
    return most;
}

} // namespace

void
AxiInterconnect::settleOrder()
{
    if (ordered)
        return;
    ordered = true;
    const unsigned below = levelsThrough(memSidePort, 0);
    if (below >= Event::requestPrio - Event::arbitratePrio)
        fatal("%s: %u crossbar levels below it; at most %d fit between "
              "arbitration and request priority",
              name().c_str(), below,
              Event::requestPrio - Event::arbitratePrio - 1);
    setTickPriority(Event::arbitratePrio + static_cast<int>(below));
}

ResponsePort &
AxiInterconnect::accelSide(unsigned slot)
{
    return *masters.at(slot).port;
}

bool
AxiInterconnect::canOffer(unsigned slot) const
{
    return !masters.at(slot).pending.has_value();
}

bool
AxiInterconnect::offer(unsigned slot, const MemRequest &req)
{
    const Cycles now = curCycle();
    return enter(slot, req, now, now);
}

bool
AxiInterconnect::offerAt(unsigned slot, const MemRequest &req,
                         Cycles issued)
{
    INVARIANT(issued >= curCycle(),
              "%s: beat (port %u, id %llu) handed over for past cycle "
              "%llu",
              name().c_str(), req.srcPort,
              static_cast<unsigned long long>(req.id),
              static_cast<unsigned long long>(issued));
    return enter(slot, req, issued, issued + 1);
}

bool
AxiInterconnect::enter(unsigned slot, const MemRequest &req,
                       Cycles entered, Cycles eligible)
{
    MasterSlot &ms = masters.at(slot);
    if (ms.pending)
        return false;
    settleOrder();
    ms.pending = req;
    ms.eligible = eligible;
    if (req.srcPort >= portToSlot.size())
        portToSlot.resize(req.srcPort + 1, noSlot);
    portToSlot[req.srcPort] = slot;
    ++pendingSlots;
    _offerProbe.notify(TimedRequest{&*ms.pending, entered});
    // Arbitrate on the first cycle after this one the beat can win;
    // during arbitration, the tick's re-arm covers it.
    if (!arbitrating)
        activate(std::max(eligible, curCycle() + 1) - curCycle());
    return true;
}

Cycles
AxiInterconnect::nextGrantable(Cycles from) const
{
    if (pendingSlots == 0)
        return noCycle;
    Cycles next = noCycle;
    for (const MasterSlot &slot : masters) {
        if (!slot.pending)
            continue;
        next = std::min(next, std::max(slot.eligible, from));
        if (next == from)
            break;
    }
    return next;
}

void
AxiInterconnect::handleResponse(const MemResponse &resp)
{
    const unsigned slot = resp.srcPort < portToSlot.size()
                              ? portToSlot[resp.srcPort]
                              : noSlot;
    if (slot == noSlot)
        panic("xbar: response for source port %u that never offered "
              "a beat here",
              resp.srcPort);
    _respondProbe.notify(resp);
    masters[slot].port->sendResponse(resp);
}

void
AxiInterconnect::grantBeat(MasterSlot &slot)
{
    ++grants;
    --pendingSlots;
    _grantProbe.notify(*slot.pending);
    slot.pending.reset();
    // The slot is free again: wake the master in case it is waiting to
    // issue its next beat instead of polling every cycle (the trace
    // player relies on it; a polling master ignores it).
    slot.port->sendRetry();
}

unsigned
AxiInterconnect::countPending() const
{
    unsigned held = 0;
    for (const MasterSlot &slot : masters)
        held += slot.pending.has_value();
    return held;
}

void
AxiInterconnect::resetBurst()
{
    burstLeft = 0;
    burstOwner = noOwner;
}

bool
AxiInterconnect::tick()
{
    PROF_SCOPE("xbar", "arbitrate");
    arbitrating = true;
    // A burst can only continue while its owner still holds a
    // back-to-back beat. If the owner went idle (or the beat it was
    // stalled on was retracted), the leftover burst budget must not
    // survive: drop it and return the bus to round-robin, instead of
    // re-entering the burst path with a stale owner forever.
    if (burstLeft > 0) {
        INVARIANT(burstOwner < masters.size(),
                  "burst budget of %u beats with no valid owner",
                  burstLeft);
        if (!ready(masters[burstOwner]))
            resetBurst();
    }

    if (burstLeft > 0) {
        // Burst-sticky arbitration: the owner keeps the bus while it
        // has back-to-back beats and burst budget left.
        MasterSlot &slot = masters[burstOwner];
        if (memSidePort.trySend(*slot.pending)) {
            grantBeat(slot);
            --burstLeft;
            if (burstLeft == 0)
                resetBurst();
        } else {
            ++stallCycles;
        }
    } else {
        // Round-robin: scan from rrNext for the first waiting master.
        for (unsigned i = 0; i < masters.size(); ++i) {
            const unsigned port = (rrNext + i) % masters.size();
            MasterSlot &slot = masters[port];
            if (!ready(slot))
                continue;
            if (memSidePort.trySend(*slot.pending)) {
                grantBeat(slot);
                rrNext = (port + 1) % masters.size();
                if (maxBurst > 1) {
                    burstOwner = port;
                    burstLeft = maxBurst - 1;
                }
            } else {
                ++stallCycles;
            }
            break; // one beat per cycle, granted or stalled
        }
    }

    // Keep ticking while any master still holds a request.
    PARANOID_INVARIANT(countPending() == pendingSlots,
                       "slot conservation: %u slots hold a request, "
                       "%u counted pending",
                       countPending(), pendingSlots);
    PARANOID_INVARIANT(burstLeft < maxBurst,
                       "burst budget %u exceeds max burst %u", burstLeft,
                       maxBurst);
    arbitrating = false;
    // Tick again on the next cycle a held beat can be granted on:
    // right away (inline while nothing else is due first) when one
    // can, else when the first one handed over ahead becomes eligible.
    const Cycles next = nextGrantable(curCycle() + 1);
    if (next == noCycle)
        return false;
    if (next == curCycle() + 1)
        return true;
    activate(next - curCycle());
    return false;
}

} // namespace capcheck
