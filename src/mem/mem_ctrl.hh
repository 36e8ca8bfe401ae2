/**
 * @file
 * Pipelined memory controller model: accepts at most one request per
 * cycle and returns each response a fixed latency later. Bandwidth is
 * therefore one beat per cycle — the paper's stated platform limit —
 * while latency is hidden for deeply pipelined masters. The response
 * cycle is known at accept, so the response goes upstream at once,
 * stamped with its due cycle: the controller schedules nothing.
 */

#ifndef CAPCHECK_MEM_MEM_CTRL_HH
#define CAPCHECK_MEM_MEM_CTRL_HH

#include "base/probe.hh"
#include "base/stats.hh"
#include "mem/packet.hh"
#include "sim/clocked.hh"
#include "sim/port.hh"

namespace capcheck
{

class MemoryController : public SimObject, public TimingConsumer
{
  public:
    /** Default access latency in cycles (DRAM via AXI on the FPGA). */
    static constexpr Cycles defaultLatency = 30;

    MemoryController(EventQueue &eq, stats::StatGroup *parent_stats,
                     Cycles latency = defaultLatency,
                     std::string name = "memctrl");

    /**
     * Upstream-facing port: requests arrive through it and responses
     * leave through it, due a fixed latency after the accept. Bind it
     * to the mem-side request port of the interconnect, check stage
     * or router above.
     */
    ResponsePort &cpuSide() { return cpuSidePort; }

    /**
     * TimingConsumer: accept a request on cycle @p when; cycles must
     * not repeat or go back (one beat per cycle). The response goes
     * upstream before this returns, due @p when + latency(). It arms
     * no retry: the components above know the cycles they hand over.
     */
    bool tryAcceptAt(const MemRequest &req, Cycles when) override;

    Cycles latency() const { return _latency; }

    std::uint64_t
    requestsServed() const
    {
        return static_cast<std::uint64_t>(served.value());
    }

    /** Fired when a request is accepted, with the cycle it enters
     *  the controller (may lie ahead). */
    probe::ProbePoint<TimedRequest> &acceptProbe()
    {
        return _acceptProbe;
    }

    /** Fired when a response leaves toward the interconnect (at
     *  accept; the response carries its due cycle). */
    probe::ProbePoint<MemResponse> &respondProbe()
    {
        return _respondProbe;
    }

  private:
    ResponsePort cpuSidePort;
    Cycles _latency;
    /** First cycle the controller can still accept on. */
    Cycles nextFree = 0;

    stats::Scalar served;
    stats::Scalar readBeats;
    stats::Scalar writeBeats;

    probe::ProbePoint<TimedRequest> _acceptProbe{"memctrl.accept"};
    probe::ProbePoint<MemResponse> _respondProbe{"memctrl.respond"};
};

} // namespace capcheck

#endif // CAPCHECK_MEM_MEM_CTRL_HH
