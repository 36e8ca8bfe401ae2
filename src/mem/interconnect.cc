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
                  "cycles the winning request could not move downstream",
                  [this] {
                      return static_cast<double>(
                          waited + (refusedAt == noCycle
                                        ? 0
                                        : curCycle() - refusedAt));
                  })
{
    if (num_masters == 0)
        fatal("AxiInterconnect needs at least one master");
    for (unsigned i = 0; i < num_masters; ++i) {
        masters[i].port = std::make_unique<ResponsePort>(
            *this, "accel_side" + std::to_string(i),
            [this, i](const MemRequest &req, Cycles when,
                      Cycles grantable) {
                return offerAt(i, req, when, grantable);
            });
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
AxiInterconnect::offerAt(unsigned slot, const MemRequest &req,
                         Cycles when, Cycles grantable)
{
    INVARIANT(when >= curCycle() && grantable >= when,
              "%s: beat (port %u, id %llu) handed over for cycle %llu, "
              "grantable on %llu",
              name().c_str(), req.srcPort,
              static_cast<unsigned long long>(req.id),
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(grantable));
    MasterSlot &ms = masters.at(slot);
    if (ms.pending)
        return false;
    ms.pending = req;
    ms.entered = when;
    ms.grantable = grantable;
    if (req.srcPort >= portToSlot.size())
        portToSlot.resize(req.srcPort + 1, noSlot);
    portToSlot[req.srcPort] = slot;
    ++pendingSlots;
    _offerProbe.notify(TimedRequest{&*ms.pending, when});
    // Arbitrate on the cycle after the beat entered; during
    // arbitration, the tick's re-arm covers it. While a grant waits on
    // a refusal, only a beat that would win ahead of it can change the
    // next arbitration, from the cycle it is grantable on.
    const Cycles now = curCycle();
    if (arbitrating)
        return true;
    if (refusedAt == noCycle)
        activate(when + 1 - now);
    else if (overtakes(slot))
        activate(std::max(grantable, now + 1) - now);
    return true;
}

Cycles
AxiInterconnect::nextTick(Cycles from) const
{
    if (pendingSlots == 0)
        return noCycle;
    Cycles next = noCycle;
    for (const MasterSlot &slot : masters) {
        if (!slot.pending)
            continue;
        next = std::min(next, std::max(slot.entered + 1, from));
        if (next == from)
            break;
    }
    return next;
}

bool
AxiInterconnect::overtakes(unsigned slot) const
{
    // A burst keeps its owner's beat at the head of arbitration.
    if (burstLeft > 0)
        return false;
    const unsigned n = masters.size();
    return (slot + n - rrNext) % n < (refusedSlot + n - rrNext) % n;
}

Cycles
AxiInterconnect::nextOvertake() const
{
    Cycles next = noCycle;
    for (unsigned slot = 0; slot < masters.size(); ++slot) {
        if (masters[slot].pending && overtakes(slot))
            next = std::min(next, masters[slot].grantable);
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
    // hand over its next beat.
    slot.port->sendRetry(curCycle());
}

void
AxiInterconnect::handleRetry(Cycles when)
{
    // A retry for a grant nobody waits on (the parent freed a slot this
    // crossbar did not find full) changes nothing.
    if (!arbitrating && refusedAt == noCycle)
        return;
    const Cycles now = curCycle();
    if (arbitrating || when > now) {
        activate(std::max(when, now + 1) - now);
        return;
    }
    // The parent's grant freed the slot on this cycle: arbitrate again
    // now, as a per-cycle re-offer after that grant would have.
    deactivate();
    if (tick())
        activate(1);
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
    const Cycles now = curCycle();
    arbitrating = true;
    // A refused grant ends here: every cycle since it was refused
    // again, as a re-offer on each of them would have been.
    if (refusedAt != noCycle) {
        waited += now - refusedAt;
        refusedAt = noCycle;
    }
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

    // Burst-sticky arbitration keeps the bus with the owner while it
    // has back-to-back beats and budget left; otherwise round-robin
    // picks the first waiting master from rrNext. One beat per cycle,
    // granted or refused.
    unsigned pick = noSlot;
    if (burstLeft > 0) {
        pick = burstOwner;
    } else {
        for (unsigned i = 0; i < masters.size(); ++i) {
            const unsigned port = (rrNext + i) % masters.size();
            if (ready(masters[port])) {
                pick = port;
                break;
            }
        }
    }
    if (pick != noSlot) {
        MasterSlot &slot = masters[pick];
        if (memSidePort.trySendAt(*slot.pending, now)) {
            grantBeat(slot);
            if (burstLeft > 0) {
                if (--burstLeft == 0)
                    resetBurst();
            } else {
                rrNext = (pick + 1) % masters.size();
                if (maxBurst > 1) {
                    burstOwner = pick;
                    burstLeft = maxBurst - 1;
                }
            }
        } else {
            refusedAt = now;
            refusedSlot = pick;
        }
    }

    PARANOID_INVARIANT(countPending() == pendingSlots,
                       "slot conservation: %u slots hold a request, "
                       "%u counted pending",
                       countPending(), pendingSlots);
    PARANOID_INVARIANT(burstLeft < maxBurst,
                       "burst budget %u exceeds max burst %u", burstLeft,
                       maxBurst);
    arbitrating = false;
    // Refused: sleep until the refuser's retry (armed already, or to
    // come with the parent's grant), or until a beat that would win
    // ahead of the refused one becomes grantable.
    if (refusedAt != noCycle) {
        const Cycles overtake = nextOvertake();
        if (overtake != noCycle)
            activate(overtake - now);
        return false;
    }
    // Tick again on the next cycle a held beat calls for: right away
    // (inline while nothing else is due first) when one is held, else
    // after the first one handed over ahead enters.
    const Cycles next = nextTick(now + 1);
    if (next == noCycle)
        return false;
    if (next == now + 1)
        return true;
    activate(next - now);
    return false;
}

} // namespace capcheck
