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

    /** True when master slot @p slot can take a request. */
    bool canOffer(unsigned slot) const;

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
     * the start of this crossbar's arbitration wait. In a cascaded
     * tree every level fires its own offer/grant pair, which is what
     * lets the flight recorder attribute multi-hop xbar waits exactly.
     */
    probe::ProbePoint<MemRequest> &offerProbe() { return _offerProbe; }

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
        std::unique_ptr<ResponsePort> port;
    };

    /** Sentinel: no master currently owns a burst. */
    static constexpr unsigned noOwner = ~0u;
    /** Sentinel: the source port never offered a beat here. */
    static constexpr unsigned noSlot = ~0u;

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

    stats::Scalar grants;
    stats::Scalar stallCycles;

    probe::ProbePoint<MemRequest> _offerProbe{"xbar.offer"};
    probe::ProbePoint<MemRequest> _grantProbe{"xbar.grant"};
    probe::ProbePoint<MemResponse> _respondProbe{"xbar.respond"};
};

} // namespace capcheck

#endif // CAPCHECK_MEM_INTERCONNECT_HH
