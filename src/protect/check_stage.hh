/**
 * @file
 * Timing wrapper placing a ProtectionChecker between the interconnect
 * and the memory controller. Throughput is one request per cycle
 * (pipelined); each request spends the checker's latency in the stage.
 * Denied requests never reach memory — an error response goes back to
 * the issuing master instead.
 */

#ifndef CAPCHECK_PROTECT_CHECK_STAGE_HH
#define CAPCHECK_PROTECT_CHECK_STAGE_HH

#include <deque>

#include "base/probe.hh"
#include "protect/checker.hh"
#include "sim/clocked.hh"
#include "sim/port.hh"

namespace capcheck::protect
{

/** One check occupying the stage: accept cycle through result cycle. */
struct CheckTimingEvent
{
    const MemRequest *req;
    bool allowed;
    Cycles start;
    Cycles end;
};

class CheckStage : public TickingObject, public TimingConsumer,
                   public ResponseHandler
{
  public:
    CheckStage(EventQueue &eq, stats::StatGroup *parent_stats,
               ProtectionChecker &checker,
               std::string name = "checkstage");

    /**
     * Upstream-facing port (bind to the interconnect's mem side):
     * requests enter through it; denial responses — and responses
     * forwarded up from memory — leave through it.
     */
    ResponsePort &cpuSide() { return cpuSidePort; }

    /** Downstream-facing port (bind to memory or a channel router). */
    RequestPort &memSide() { return memSidePort; }

    /** The functional checker this stage wraps (any of the backends). */
    ProtectionChecker &protection() { return checker; }

    bool tryAccept(const MemRequest &req) override;
    bool tick() override;

    /** ResponseHandler: pass memory responses through, upstream. */
    void handleResponse(const MemResponse &resp) override;

    /** Fired once per accepted request with its occupancy window. */
    probe::ProbePoint<CheckTimingEvent> &timingProbe()
    {
        return _timingProbe;
    }

    std::uint64_t
    denials() const
    {
        return static_cast<std::uint64_t>(denied.value());
    }

  private:
    struct Staged
    {
        MemRequest req;
        bool allowed;
        Cycles due;
    };

    ProtectionChecker &checker;
    ResponsePort cpuSidePort;
    RequestPort memSidePort;
    std::deque<Staged> pipe;
    Cycles lastAcceptCycle = ~Cycles{0};

    stats::Scalar checked;
    stats::Scalar denied;
    stats::Scalar stallCycles;

    probe::ProbePoint<CheckTimingEvent> _timingProbe{
        "checkstage.timing"};
};

} // namespace capcheck::protect

#endif // CAPCHECK_PROTECT_CHECK_STAGE_HH
