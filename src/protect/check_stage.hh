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
 * accepted: the stage hands the request on at once, stamped with that
 * cycle (a denial goes up as a response due then), and never ticks.
 * A crossbar below it can refuse (its slot still holds the stage's
 * last request): checked requests then wait, and the next goes on at
 * that crossbar's grant retry, on the cycle a pipe polled every cycle
 * would have pushed it. A stage that refuses arms the crossbar above
 * for the cycle it can accept again.
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

class CheckStage : public SimObject, public TimingConsumer,
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

    /** Downstream-facing port (bind to memory, a channel router or a
     *  parent crossbar's slot). */
    RequestPort &memSide() { return memSidePort; }

    /** The functional checker this stage wraps (any of the backends). */
    ProtectionChecker &protection() { return checker; }

    /** TimingConsumer: check a request granted onto the stage on
     *  cycle @p when (the current cycle). */
    bool tryAcceptAt(const MemRequest &req, Cycles when) override;

    /** ResponseHandler: pass memory responses through, upstream. */
    void handleResponse(const MemResponse &resp) override;

    /** ResponseHandler: the crossbar below granted the stage's beat
     *  this cycle; the next checked beat goes on. */
    void handleRetry(Cycles when) override;

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
    static constexpr Cycles noCycle = ~Cycles{0};

    /** A checked request that has not left the stage yet. */
    struct Checked
    {
        MemRequest req;
        bool allowed;
        /** Its verdict's cycle, but never the accept cycle. */
        Cycles due;
        /** Accept cycle of a transparent pass-through, else noCycle. */
        Cycles passAt;
    };

    /** Requests accepted and not yet left the stage. */
    std::size_t depth();
    /** First cycle @p beat can leave: its due cycle, after the request
     *  ahead of it (one forward per cycle). */
    Cycles readyCycle(const Checked &beat) const;
    /** Pass @p beat on, or deny it, on the first cycle it can leave;
     *  false when the component below refuses it. */
    bool leave(const Checked &beat);
    /** Send an allowed request below: the one forward path. */
    bool forward(const Checked &beat, Cycles when, Cycles grantable);
    void deny(const MemRequest &req, Cycles due);

    ProtectionChecker &checker;
    ResponsePort cpuSidePort;
    RequestPort memSidePort;
    /** Exit cycles still ahead of requests that have left, ascending. */
    std::deque<Cycles> exits;
    /** Checked requests the component below has not taken yet, oldest
     *  (always an allowed one) first. */
    std::deque<Checked> waiting;
    /** The last request's exit and verdict. */
    Cycles lastExit = 0;
    bool lastAllowed = false;
    Cycles lastAcceptCycle = noCycle;
    /** The crossbar above was refused while no exit was known. */
    bool retryOwed = false;
    /** Cycles the requests that left waited for the component below. */
    Cycles waited = 0;

    stats::Scalar checked;
    stats::Scalar denied;
    /** waited, plus the wait of the oldest request still running. */
    stats::Formula stallCycles;

    probe::ProbePoint<CheckTimingEvent> _timingProbe{
        "checkstage.timing"};
};

} // namespace capcheck::protect

#endif // CAPCHECK_PROTECT_CHECK_STAGE_HH
