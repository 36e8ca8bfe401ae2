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
 * Every master (trace player, check stage, child crossbar) hands its
 * beat over with the cycle it enters the slot and the first cycle it
 * can be granted on (offerAt), so timing does not depend on the order
 * components run in within a cycle. The crossbar ticks only on cycles
 * a held beat calls for, and back-to-back grants continue inline.
 * When the component below refuses a grant (a parent crossbar's full
 * slot, a check stage's admission guard), the crossbar sleeps until
 * the refuser's retry, or until a beat that would win arbitration
 * ahead of the refused one can be granted; stallCycles counts the
 * cycles waited, as a re-offer every cycle would have.
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
     * Hand master slot @p slot a request that enters it on cycle
     * @p when and can be granted from cycle @p grantable on (behind
     * the slot's accel_side port).
     * @return false when the slot still holds a request.
     */
    bool offerAt(unsigned slot, const MemRequest &req, Cycles when,
                 Cycles grantable);

    /** offerAt() for the current cycle, grantable at once. */
    bool offer(unsigned slot, const MemRequest &req)
    {
        return offerAt(slot, req, curCycle(), curCycle());
    }

    /** True when master slot @p slot can take a request. */
    bool canOffer(unsigned slot) const;

    /**
     * Tick after every crossbar below this one on a cycle
     * (arbitratePrio + the crossbar levels below it). Timing does not
     * depend on it; it keeps the order of one cycle's grants, and so
     * of same-cycle Chrome trace events, root first. The elaborator
     * calls it once the topology is wired.
     */
    void settleOrder();

    /** ResponseHandler: deliver a response back to its master. */
    void handleResponse(const MemResponse &resp) override;

    /** ResponseHandler: the component below that refused the last
     *  grant can take a beat again on cycle @p when. */
    void handleRetry(Cycles when) override;

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
        /** Cycle @c pending entered the slot. */
        Cycles entered = 0;
        /** First cycle arbitration may grant @c pending on. */
        Cycles grantable = 0;
        std::unique_ptr<ResponsePort> port;
    };

    /** Sentinel: no master currently owns a burst. */
    static constexpr unsigned noOwner = ~0u;
    /** Sentinel: the source port never offered a beat here. */
    static constexpr unsigned noSlot = ~0u;
    static constexpr Cycles noCycle = ~Cycles{0};

    /** True when @p slot holds a request arbitration may grant now. */
    bool
    ready(const MasterSlot &slot) const
    {
        return slot.pending && slot.grantable <= curCycle();
    }
    /** Next cycle to arbitrate on, at least @p from: the cycle after
     *  a held request entered; noCycle when no slot holds one. */
    Cycles nextTick(Cycles from) const;
    /** Earliest cycle a held beat that would win arbitration ahead of
     *  the refused one becomes grantable; noCycle when none. */
    Cycles nextOvertake() const;
    /** True when slot @p slot comes before the refused slot in the
     *  round-robin scan (and no burst pins the refused one). */
    bool overtakes(unsigned slot) const;
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

    /** @{ A refused grant: the cycle of the refusal (noCycle while
     *  none is outstanding) and the slot refused. */
    Cycles refusedAt = noCycle;
    unsigned refusedSlot = 0;
    /** @} */
    /** Cycles waited on refusals that have ended. */
    Cycles waited = 0;

    stats::Scalar grants;
    /** waited, plus the wait running now. */
    stats::Formula stallCycles;

    probe::ProbePoint<TimedRequest> _offerProbe{"xbar.offer"};
    probe::ProbePoint<MemRequest> _grantProbe{"xbar.grant"};
    probe::ProbePoint<MemResponse> _respondProbe{"xbar.respond"};
};

} // namespace capcheck

#endif // CAPCHECK_MEM_INTERCONNECT_HH
