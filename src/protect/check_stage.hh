/**
 * @file
 * Timing wrapper placing a ProtectionChecker between the interconnect
 * and the memory controller. Throughput is one request per cycle
 * (pipelined); each request spends the checker's latency in the stage.
 * Denied requests never reach memory — an error response goes back to
 * the issuing master instead.
 *
 * The stage leaves its pipe in FIFO order, at most one forwarded
 * request per cycle, so a request's exit cycle is known when it is
 * accepted. A stage whose downstream accepts ahead (only routers and
 * memory controllers below it) computes that cycle and forwards at
 * once, stamped with it; it never ticks. A stage with a crossbar below
 * it, which can refuse a forward, keeps the pipe and ticks it.
 */

#ifndef CAPCHECK_PROTECT_CHECK_STAGE_HH
#define CAPCHECK_PROTECT_CHECK_STAGE_HH

#include <cstdint>
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

    /**
     * True when the stage computes exit cycles instead of ticking:
     * everything below it accepts ahead. Decided on the first call,
     * from the bindings, and fixed from then on: the elaborator calls
     * it once the topology is wired, a hand-wired stage on its first
     * request.
     */
    bool computesExits();

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

    enum class Timing : std::uint8_t
    {
        undecided,
        computed,
        ticked,
    };

    /** Requests accepted but not yet left the stage. */
    std::size_t depth();
    /** Computed timing: send the request on at its exit cycle. */
    void forwardAt(const MemRequest &req, bool allowed, Cycles latency);
    /** Send the error response for a denied request up. */
    void deny(const MemRequest &req, Cycles due);

    ProtectionChecker &checker;
    ResponsePort cpuSidePort;
    RequestPort memSidePort;
    Timing timing = Timing::undecided;
    /** Ticked timing: requests inside the stage, oldest first. */
    std::deque<Staged> pipe;
    /** Computed timing: exit cycles still ahead, ascending. */
    std::deque<Cycles> exits;
    /** Computed timing: the last request's exit and verdict. */
    Cycles lastExit = 0;
    bool lastAllowed = false;
    Cycles lastAcceptCycle = ~Cycles{0};

    stats::Scalar checked;
    stats::Scalar denied;
    stats::Scalar stallCycles;

    probe::ProbePoint<CheckTimingEvent> _timingProbe{
        "checkstage.timing"};
};

} // namespace capcheck::protect

#endif // CAPCHECK_PROTECT_CHECK_STAGE_HH
