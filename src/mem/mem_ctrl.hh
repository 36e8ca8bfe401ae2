/**
 * @file
 * Pipelined memory controller model: accepts at most one request per
 * cycle and returns each response a fixed latency later. Bandwidth is
 * therefore one beat per cycle — the paper's stated platform limit —
 * while latency is hidden for deeply pipelined masters.
 */

#ifndef CAPCHECK_MEM_MEM_CTRL_HH
#define CAPCHECK_MEM_MEM_CTRL_HH

#include <deque>

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
     * leave through it a fixed latency later. Bind it to the mem-side
     * request port of the interconnect, check stage or router above.
     */
    ResponsePort &cpuSide() { return cpuSidePort; }

    /** TimingConsumer: accept one request per cycle. */
    bool tryAccept(const MemRequest &req) override;

    Cycles latency() const { return _latency; }

    std::uint64_t
    requestsServed() const
    {
        return static_cast<std::uint64_t>(served.value());
    }

    /** Fired when a request enters the controller pipeline. */
    probe::ProbePoint<MemRequest> &acceptProbe() { return _acceptProbe; }

    /** Fired when a response leaves toward the interconnect. */
    probe::ProbePoint<MemResponse> &respondProbe()
    {
        return _respondProbe;
    }

  private:
    class RespondEvent : public Event
    {
      public:
        RespondEvent(MemoryController &owner)
            : Event(Event::responsePrio), owner(owner)
        {
        }

        void process() override { owner.deliver(); }
        std::string description() const override { return "mem-respond"; }

      private:
        MemoryController &owner;
    };

    void deliver();

    ResponsePort cpuSidePort;
    Cycles _latency;
    Cycles lastAcceptCycle = ~Cycles{0};

    /** In-flight responses, ordered by due cycle. */
    struct Inflight
    {
        Cycles due;
        MemResponse resp;
    };
    std::deque<Inflight> pipeline;
    RespondEvent respondEvent;

    stats::Scalar served;
    stats::Scalar readBeats;
    stats::Scalar writeBeats;

    probe::ProbePoint<MemRequest> _acceptProbe{"memctrl.accept"};
    probe::ProbePoint<MemResponse> _respondProbe{"memctrl.respond"};
};

} // namespace capcheck

#endif // CAPCHECK_MEM_MEM_CTRL_HH
