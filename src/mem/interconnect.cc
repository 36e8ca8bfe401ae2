#include "mem/interconnect.hh"

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
            [this, i] { return canOffer(i); });
    }
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
    MasterSlot &ms = masters.at(slot);
    if (ms.pending)
        return false;
    ms.pending = req;
    if (req.srcPort >= portToSlot.size())
        portToSlot.resize(req.srcPort + 1, noSlot);
    portToSlot[req.srcPort] = slot;
    ++pendingSlots;
    _offerProbe.notify(req);
    activate(1);
    return true;
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
    // A burst can only continue while its owner still holds a
    // back-to-back beat. If the owner went idle (or the beat it was
    // stalled on was retracted), the leftover burst budget must not
    // survive: drop it and return the bus to round-robin, instead of
    // re-entering the burst path with a stale owner forever.
    if (burstLeft > 0) {
        INVARIANT(burstOwner < masters.size(),
                  "burst budget of %u beats with no valid owner",
                  burstLeft);
        if (!masters[burstOwner].pending)
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
            if (!slot.pending)
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
    return pendingSlots > 0;
}

} // namespace capcheck
