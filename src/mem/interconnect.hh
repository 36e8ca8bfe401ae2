/**
 * @file
 * AXI-style shared interconnect. Matching the paper's prototype, the
 * interconnect admits one memory access per clock cycle; masters
 * contend through round-robin arbitration. Each master slot has a
 * single-entry request buffer (an AXI address channel that stalls until
 * the crossbar accepts the beat) exposed as a ResponsePort named
 * "accel_side<i>"; granted beats leave through the "mem_side"
 * RequestPort. Responses are routed back to the issuing master by the
 * source port id recorded when its beat was offered.
 *
 * A master fills its slot in one of two ways. A pushed beat
 * (tryAccept: a child crossbar or check stage above) takes part in the
 * next arbitration. A trace player computes the cycle it issues each
 * beat on and hands the beat over ahead with that cycle (tryAcceptAt):
 * the beat waits in the slot from that cycle and takes part in
 * arbitration from the next one, because players issue after the
 * cycle's arbitration. The crossbar then ticks only on cycles where a
 * beat can be granted, and a run of back-to-back grants continues
 * inline (TickingObject).
 */

#ifndef CAPCHECK_MEM_INTERCONNECT_HH
#define CAPCHECK_MEM_INTERCONNECT_HH

#include <memory>
#include <optional>
#include <vector>

#include "base/probe.hh"
#include "base/stats.hh"
#include "mem/packet.hh"
#include "sim/clocked.hh"
#include "sim/port.hh"

namespace capcheck
{

class AxiInterconnect : public TickingObject, public ResponseHandler
{
  public:
    /**
     * @param num_masters master slots (accelerator ports).
     * @param max_burst beats a granted master may keep the bus for
     *        while it has back-to-back requests (AXI burst-style
     *        sticky arbitration). 1 = pure round-robin per beat.
     */
    AxiInterconnect(EventQueue &eq, stats::StatGroup *parent_stats,
                    unsigned num_masters, unsigned max_burst = 1,
                    std::string name = "xbar");

    unsigned numMasters() const { return masters.size(); }

    /**
     * Master-facing port of slot @p slot ("accel_side<slot>"); bind
     * each master's request port here. Slots bind per wave, so slots
     * without a live master may stay unbound.
     */
    ResponsePort &accelSide(unsigned slot);

    /**
     * Downstream-facing port; bind to the check stage, a channel
     * router or the memory controller.
     */
    RequestPort &memSide() { return memSidePort; }

    /**
     * Offer a request into master slot @p slot (the admission function
     * behind that slot's accel_side port).
     * @return false when that slot's buffer is full this cycle.
     */
    bool offer(unsigned slot, const MemRequest &req);

    /**
     * Hand over a request its master issues on cycle @p issued
     * (>= the current cycle, after that cycle's arbitration): it waits
     * in slot @p slot from then and can be granted from @p issued + 1.
     * @return false when the slot still holds a request.
     */
    bool offerAt(unsigned slot, const MemRequest &req, Cycles issued);

    /** True when master slot @p slot can take a request. */
    bool canOffer(unsigned slot) const;

    /**
     * Settle the tick order from the bindings, once: a crossbar ticks
     * after every crossbar below it on the same cycle
     * (arbitratePrio + the crossbar levels below it), so a beat a
     * child grants waits for the parent's next arbitration. A ticking
     * pipeline got that order from when each tick was scheduled; with
     * beats handed over ahead it must be explicit. The elaborator
     * calls it once the topology is wired, a hand-wired crossbar on
     * its first offer.
     */
    void settleOrder();

    /** ResponseHandler: deliver a response back to its master. */
    void handleResponse(const MemResponse &resp) override;

    bool tick() override;

    /** Total beats granted. */
    std::uint64_t beatsGranted() const
    {
        return static_cast<std::uint64_t>(grants.value());
    }

    /**
     * Fired when a request enters a master slot (offer accepted) —
     * the start of this crossbar's arbitration wait, with the cycle it
     * enters on (ahead for a player's beat). In a cascaded tree every
     * level fires its own offer/grant pair, which is what lets the
     * flight recorder attribute multi-hop xbar waits exactly.
     */
    probe::ProbePoint<TimedRequest> &offerProbe() { return _offerProbe; }

    /** Fired when arbitration grants a request onto the bus. */
    probe::ProbePoint<MemRequest> &grantProbe() { return _grantProbe; }

    /**
     * Fired when a response is routed back to its master — the end of
     * the request's flight, whether it came from the memory controller
     * or as a denial from the check stage. A fixed-latency pipeline
     * below reports it at grant; the response's due cycle is when the
     * flight ends.
     */
    probe::ProbePoint<MemResponse> &respondProbe()
    {
        return _respondProbe;
    }

  private:
    struct MasterSlot
    {
        std::optional<MemRequest> pending;
        /** First cycle arbitration may grant @c pending on. */
        Cycles eligible = 0;
        std::unique_ptr<ResponsePort> port;
    };

    /** Sentinel: no master currently owns a burst. */
    static constexpr unsigned noOwner = ~0u;
    /** Sentinel: the source port never offered a beat here. */
    static constexpr unsigned noSlot = ~0u;
    static constexpr Cycles noCycle = ~Cycles{0};

    /** Put @p req into @p slot, grantable from cycle @p eligible. */
    bool enter(unsigned slot, const MemRequest &req, Cycles entered,
               Cycles eligible);
    /** True when @p slot holds a request arbitration may grant now. */
    bool
    ready(const MasterSlot &slot) const
    {
        return slot.pending && slot.eligible <= curCycle();
    }
    /** Earliest cycle a held request becomes grantable, at least
     *  @p from; noCycle when no slot holds one. */
    Cycles nextGrantable(Cycles from) const;
    void grantBeat(MasterSlot &slot);
    void resetBurst();
    /** Slots holding a request, recounted (PARANOID checks). */
    unsigned countPending() const;

    RequestPort memSidePort;
    std::vector<MasterSlot> masters;

    /**
     * Local slot by source port id (noSlot where none), recorded at
     * offer() time so responses route correctly even when this
     * crossbar's slot indices differ from the masters' global port ids
     * (multi-crossbar topologies). Port ids are small and dense, so a
     * flat table grown on demand replaces a hash lookup per beat.
     */
    std::vector<unsigned> portToSlot;

    unsigned rrNext = 0;
    unsigned maxBurst;
    unsigned burstLeft = 0;
    unsigned burstOwner = noOwner;

    /** Slots holding a request: incremented by offer(), decremented
     *  by a grant. */
    unsigned pendingSlots = 0;
    /** Inside tick(): a beat handed over now is covered by the
     *  tick's own re-arm. */
    bool arbitrating = false;
    /** settleOrder() has run. */
    bool ordered = false;

    stats::Scalar grants;
    stats::Scalar stallCycles;

    probe::ProbePoint<TimedRequest> _offerProbe{"xbar.offer"};
    probe::ProbePoint<MemRequest> _grantProbe{"xbar.grant"};
    probe::ProbePoint<MemResponse> _respondProbe{"xbar.respond"};
};

} // namespace capcheck

#endif // CAPCHECK_MEM_INTERCONNECT_HH
