/**
 * @file
 * Timing replay of an accelerator instance: streams input buffers in,
 * replays the recorded datapath/DMA trace with bounded outstanding
 * requests, and streams outputs back. All DMA goes through the
 * instance's interconnect master port, carrying the provenance the
 * CapChecker mode expects.
 */

#ifndef CAPCHECK_ACCEL_TRACE_PLAYER_HH
#define CAPCHECK_ACCEL_TRACE_PLAYER_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "accel/trace.hh"
#include "base/probe.hh"
#include "cpu/cpu_model.hh" // BufferMapping
#include "mem/packet.hh"
#include "sim/clocked.hh"
#include "sim/port.hh"
#include "workloads/buffer_spec.hh"

namespace capcheck::accel
{

/** Payload of the task start/finish probes. */
struct TaskLifecycleEvent
{
    TaskId task;
    /** Instance name ("gemm_ncubed#3"); borrowed for the call. */
    const std::string *name;
    Cycles cycle;
    /** Finish only: the instance aborted on a denied beat. */
    bool failed;
};

/** How the player encodes object provenance into requests. */
struct AddressingMode
{
    /** Attach object ids as request metadata (CapChecker Fine). */
    bool objectMetadata = true;
    /** Fold the object id into address bits 63:56 (CapChecker Coarse). */
    bool objectInAddress = false;
};

class TracePlayer : public TickingObject, public ResponseHandler
{
  public:
    /** DMA engine credits for bulk stream transfers. */
    static constexpr unsigned streamCredits = 16;

    /**
     * The player is a computed beat source. Its replay is a sequence
     * of ticks, each on the cycle a polling player would take it (the
     * wake rules below), but the player computes them instead of
     * dispatching them: a tick runs as soon as nothing can change it
     * any more. That holds for every tick before the current cycle,
     * and for later ones while no response is outstanding and the
     * crossbar slot is free. A tick that issues hands its beat to the
     * crossbar ahead, with its issue cycle (RequestPort::trySendAt);
     * the beat's grant (its retry) and response then let the player
     * compute on. The player's own event only runs a tick that a late
     * response could still change (a beat still to cross a crossbar
     * below its own, whose later arbitration decides the response)
     * and reports the finish on its cycle.
     */
    TracePlayer(EventQueue &eq, stats::StatGroup *parent_stats,
                std::string name, const workloads::KernelSpec &spec,
                std::shared_ptr<const InstanceTrace> trace,
                std::vector<BufferMapping> buffers, TaskId task,
                PortId port, AddressingMode addressing);

    /**
     * Interconnect-facing master port; bind to an accel_side slot of
     * an interconnect before start(). DMA beats leave through it and
     * responses come back on it.
     */
    RequestPort &memSide() { return memSidePort; }

    /** Begin execution at @p when (after driver setup). */
    void start(Cycles when);

    /** True once the finish (or abort) has been reported. */
    bool done() const { return finishReported; }
    bool failed() const { return _failed; }
    Cycles finishCycle() const { return _finishCycle; }
    TaskId task() const { return taskId; }
    /** DMA beats issued so far (each counted once, at its issue). */
    std::uint64_t
    issuedBeats() const
    {
        return static_cast<std::uint64_t>(beatsIssued.value());
    }

    /** Invoked once when the instance finishes (or aborts). */
    void onDone(std::function<void()> fn) { doneFn = std::move(fn); }

    /**
     * Fired when a DMA beat leaves the instance into its xbar master
     * slot — the start of the beat's flight through the platform (the
     * flight recorder's issue hop) — with its issue cycle, reported
     * when the player computes the issue (at or before that cycle).
     */
    probe::ProbePoint<TimedRequest> &issueProbe() { return _issueProbe; }

    /** @{ Task lifecycle probes (start() and completion/abort). */
    probe::ProbePoint<TaskLifecycleEvent> &startProbe()
    {
        return _startProbe;
    }
    probe::ProbePoint<TaskLifecycleEvent> &finishProbe()
    {
        return _finishProbe;
    }
    /** @} */

    void handleResponse(const MemResponse &resp) override;
    void handleRetry(Cycles when) override;
    bool tick() override;

  private:
    enum class Phase
    {
        idle,
        streamIn,
        body,
        streamOut,
        done,
    };

    /** @{ Stream cursor: the streamed object the current phase reads
     *  or writes from @p obj on (spec.buffers.size() when none). */
    ObjectId streamObject(ObjectId obj) const;
    void startStream(Phase stream_phase);
    /** @} */
    bool issue(MemCmd cmd, ObjectId obj, std::uint64_t off,
               std::uint32_t size);
    /** The next tick is on cycle @p cycle at the latest. */
    void wakeAt(Cycles cycle) { wake = std::min(wake, cycle); }
    /** tick epilogue on the poll paths: where a polling player
     *  would keep ticking, sleep and arm the retry wake. */
    bool pollSleep();
    /** tick epilogue after an issue whose next tick could only find
     *  the credit window full or a barrier waiting: sleep until a
     *  response. */
    bool responseSleep();
    /** Cycle a response due on @p due wakes the tick on. */
    Cycles responseWake(Cycles due, bool denied) const;
    /** Wake for the earliest pending response that wakes the tick. */
    void armResponseWake();
    /** Retire the responses due by the tick's cycle, oldest first. */
    void retireResponses();
    /** The tick on cycle @p cycle. */
    void runTick(Cycles cycle);
    /** One tick's replay work; true to tick again next cycle. */
    bool body();
    void finish();
    /** Run the ticks before the current cycle (the slot was full). */
    void catchUp();
    /** Run every tick nothing can change any more, then arm the
     *  player's event for what is left. */
    void settle();

    const workloads::KernelSpec &spec;
    /** Shared: equal tasks of a sweep replay one recorded trace. */
    std::shared_ptr<const InstanceTrace> trace;
    std::vector<BufferMapping> buffers;
    TaskId taskId;
    PortId port;
    RequestPort memSidePort;
    AddressingMode addressing;

    Phase phase = Phase::idle;
    ObjectId streamObj = 0;
    std::uint64_t streamOff = 0;
    std::size_t opIndex = 0;
    /** Beats issued and not yet retired. */
    unsigned outstanding = 0;

    static constexpr Cycles noCycle = ~Cycles{0};
    /** Cycle of the tick being run. */
    Cycles at = 0;
    /** Cycle of the next tick; noCycle while only a response or the
     *  retry can wake the player. */
    Cycles wake = noCycle;
    /** The last beat issued still waits in the crossbar slot. */
    bool slotFull = false;

    /** A response registered ahead of its due cycle. */
    struct Pending
    {
        Cycles due;
        bool ok;
    };
    /** Responses not yet retired, in arrival order (at most the
     *  credit window, so a scan is cheap). */
    std::vector<Pending> pending;
    /**
     * Armed when the player sleeps on a path where a polling player
     * would keep ticking (an issue attempt that did not saturate the
     * credit window). Only then may a grant retry wake the tick.
     * Retries arriving while the player sleeps on a response-driven
     * precondition (credits, drain, barrier) must be ignored: the
     * response reactivates the player one cycle later, and a
     * same-cycle retry wake would issue a cycle early.
     */
    bool awaitRetry = false;
    /**
     * Cycle of the last issuing tick that slept where a polling player
     * would have taken one more tick on the next cycle: an issue that
     * filled the credit window or is followed by a barrier, or one
     * that started the delay op after it. A response arriving on the
     * skipped tick's cycle wakes the player on that same cycle
     * instead of the next (see responseWake()). noCycle when the
     * last tick skipped nothing.
     */
    Cycles skippedAfter = noCycle;
    Cycles busyUntil = 0;
    bool _failed = false;
    Cycles _finishCycle = 0;
    bool finishReported = false;
    std::uint64_t nextReqId = 0;
    std::function<void()> doneFn;

    stats::Scalar beatsIssued;
    stats::Scalar deniedResponses;

    probe::ProbePoint<TimedRequest> _issueProbe{"accel.issue"};
    probe::ProbePoint<TaskLifecycleEvent> _startProbe{"accel.taskStart"};
    probe::ProbePoint<TaskLifecycleEvent> _finishProbe{
        "accel.taskFinish"};
};

} // namespace capcheck::accel

#endif // CAPCHECK_ACCEL_TRACE_PLAYER_HH
