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

#include <functional>
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
     * Replay is retry-driven: instead of busy-polling the
     * interconnect every cycle for a free slot, the player sleeps
     * after an issue attempt and is woken by the crossbar's grant
     * retry. A grant fires at arbitratePrio and the woken tick runs
     * at requestPrio of the same cycle — exactly the cycle a
     * per-cycle poll would issue on — so every request leaves on the
     * cycle a polling player's would.
     */
    TracePlayer(EventQueue &eq, stats::StatGroup *parent_stats,
                std::string name, const workloads::KernelSpec &spec,
                InstanceTrace trace,
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

    bool done() const { return phase == Phase::done; }
    bool failed() const { return _failed; }
    Cycles finishCycle() const { return _finishCycle; }
    TaskId task() const { return taskId; }

    /** Invoked once when the instance finishes (or aborts). */
    void onDone(std::function<void()> fn) { doneFn = std::move(fn); }

    /**
     * Fired when a DMA beat leaves the instance into its xbar master
     * slot — the start of the beat's flight through the platform (the
     * flight recorder's issue hop).
     */
    probe::ProbePoint<MemRequest> &issueProbe() { return _issueProbe; }

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
    void handleRetry() override;
    bool tick() override;

  private:
    enum class Phase
    {
        idle,
        streamIn,
        body,
        streamOut,
        drain,
        done,
    };

    struct StreamBeat
    {
        MemCmd cmd;
        ObjectId obj;
        std::uint64_t off;
        std::uint32_t size;
    };

    void buildStreams();
    bool issue(MemCmd cmd, ObjectId obj, std::uint64_t off,
               std::uint32_t size);
    /** tick() epilogue on the poll paths: where a polling player
     *  would keep ticking, sleep and arm the retry wake. */
    bool pollSleep();
    /** tick() epilogue after an issue whose next tick could only find
     *  the credit window full or a barrier waiting: sleep until a
     *  response. */
    bool responseSleep();
    /** Cycle a response due on @p due wakes the tick on. */
    Cycles responseWake(Cycles due, bool denied) const;
    /** Arm the tick for the earliest pending response that wakes it. */
    void armResponseWake();
    /** Retire the responses due by now, oldest registered first. */
    void retireResponses();
    /** One tick's replay work; true to tick again next cycle. */
    bool body();
    void finish();

    const workloads::KernelSpec &spec;
    InstanceTrace trace;
    std::vector<BufferMapping> buffers;
    TaskId taskId;
    PortId port;
    RequestPort memSidePort;
    AddressingMode addressing;

    Phase phase = Phase::idle;
    std::vector<StreamBeat> inBeats;
    std::vector<StreamBeat> outBeats;
    std::size_t streamIndex = 0;
    std::size_t opIndex = 0;
    /** Beats issued and not yet retired. */
    unsigned outstanding = 0;

    /** A response registered ahead of its due cycle. */
    struct Pending
    {
        Cycles due;
        bool ok;
    };
    /** Responses not yet due, in arrival order (at most the credit
     *  window, so a scan is cheap). */
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
    static constexpr Cycles noCycle = ~Cycles{0};
    Cycles busyUntil = 0;
    bool _failed = false;
    Cycles _finishCycle = 0;
    std::uint64_t nextReqId = 0;
    std::function<void()> doneFn;

    stats::Scalar beatsIssued;
    stats::Scalar deniedResponses;

    probe::ProbePoint<MemRequest> _issueProbe{"accel.issue"};
    probe::ProbePoint<TaskLifecycleEvent> _startProbe{"accel.taskStart"};
    probe::ProbePoint<TaskLifecycleEvent> _finishProbe{
        "accel.taskFinish"};
};

} // namespace capcheck::accel

#endif // CAPCHECK_ACCEL_TRACE_PLAYER_HH
