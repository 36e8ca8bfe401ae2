/**
 * @file
 * Reference DMA pipeline for lockstep tests: the trace player,
 * crossbar, check stage and memory controller as they were before
 * hand-overs carried their cycles. Each ticks or schedules an event on
 * the cycle something happens, and every hand-over happens on the
 * current cycle:
 *
 *  - RefMemoryController queues every response and delivers it from a
 *    response event on its due cycle;
 *  - RefCheckStage holds every checked request in a pipe that its
 *    tick drains, one forward per cycle, trying a refused head again
 *    every cycle;
 *  - RefCrossbar arbitrates every cycle it holds a beat, offering a
 *    refused grant again on the next one; a crossbar ticks after
 *    every crossbar below it on a cycle (its priority counts the
 *    crossbar levels below it), so the order of a cycle's ticks is
 *    what decides when a beat pushed into a slot can be granted;
 *  - RefTracePlayer takes each response on the cycle it is delivered
 *    and wakes from it on the spot, and pushes each beat into its
 *    crossbar slot from the tick that issues it.
 *
 * The production components (accel/trace_player, mem/interconnect,
 * protect/check_stage, mem/mem_ctrl) compute those cycles instead —
 * the player its ticks, the stage and controller their cycles at
 * grant, every hand-over its entry and grantable cycle, refused
 * components a retry cycle — and must agree on every issue, grant and
 * response cycle and every stat (see
 * tests/fuzz/pipeline_oracle_fuzz_test.cc). One fix rides along: a
 * zero-latency pass-through that finds the component below (memory
 * controller or crossbar) taken this cycle waits in the pipe for the
 * next cycle instead of being refused and checked again.
 */

#ifndef CAPCHECK_TESTS_ORACLE_REF_PIPELINE_HH
#define CAPCHECK_TESTS_ORACLE_REF_PIPELINE_HH

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "accel/trace.hh"
#include "base/probe.hh"
#include "cpu/cpu_model.hh" // BufferMapping
#include "mem/packet.hh"
#include "protect/checker.hh"
#include "sim/clocked.hh"
#include "sim/port.hh"
#include "workloads/buffer_spec.hh"

namespace capcheck::oracle
{

/** Memory controller that delivers each response from an event. */
class RefMemoryController : public SimObject, public TimingConsumer
{
  public:
    RefMemoryController(EventQueue &eq, stats::StatGroup *parent_stats,
                        Cycles latency, std::string name = "memctrl");

    ResponsePort &cpuSide() { return cpuSidePort; }
    /** Accepts on the current cycle only (@p when). */
    bool tryAcceptAt(const MemRequest &req, Cycles when) override;

  private:
    class RespondEvent : public Event
    {
      public:
        explicit RespondEvent(RefMemoryController &owner)
            : Event(Event::responsePrio), owner(owner)
        {
        }

        void process() override { owner.deliver(); }

      private:
        RefMemoryController &owner;
    };

    void deliver();

    ResponsePort cpuSidePort;
    Cycles latency;
    Cycles lastAcceptCycle = ~Cycles{0};
    /** In-flight responses, ordered by due cycle. */
    std::deque<MemResponse> pipeline;
    RespondEvent respondEvent;

    stats::Scalar served;
    stats::Scalar readBeats;
    stats::Scalar writeBeats;
};

/** Check stage that ticks its pipe every cycle it holds a request. */
class RefCheckStage : public TickingObject, public TimingConsumer,
                      public ResponseHandler
{
  public:
    RefCheckStage(EventQueue &eq, stats::StatGroup *parent_stats,
                  protect::ProtectionChecker &checker,
                  std::string name = "checkstage");

    ResponsePort &cpuSide() { return cpuSidePort; }
    RequestPort &memSide() { return memSidePort; }

    /** Accepts on the current cycle only (@p when). */
    bool tryAcceptAt(const MemRequest &req, Cycles when) override;
    bool tick() override;
    void handleResponse(const MemResponse &resp) override;

  private:
    struct Staged
    {
        MemRequest req;
        bool allowed;
        Cycles due;
    };

    protect::ProtectionChecker &checker;
    ResponsePort cpuSidePort;
    RequestPort memSidePort;
    std::deque<Staged> pipe;
    Cycles lastAcceptCycle = ~Cycles{0};

    stats::Scalar checked;
    stats::Scalar denied;
    stats::Scalar stallCycles;
};

/**
 * Crossbar that arbitrates every cycle it holds a beat. Beats enter
 * its slots on the current cycle and are grantable at once; whether
 * that cycle's arbitration has already run decides when they win.
 */
class RefCrossbar : public TickingObject, public ResponseHandler
{
  public:
    /** @p levels_below: crossbar levels on the path below it (its
     *  place in a cycle's tick order). */
    RefCrossbar(EventQueue &eq, stats::StatGroup *parent_stats,
                unsigned num_masters, unsigned max_burst,
                std::string name, unsigned levels_below);

    ResponsePort &accelSide(unsigned slot) { return *masters[slot].port; }
    RequestPort &memSide() { return memSidePort; }

    void handleResponse(const MemResponse &resp) override;
    bool tick() override;

    probe::ProbePoint<MemRequest> &grantProbe() { return _grantProbe; }
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

    static constexpr unsigned noOwner = ~0u;

    bool offer(unsigned slot, const MemRequest &req);
    void grantBeat(MasterSlot &slot);

    RequestPort memSidePort;
    std::vector<MasterSlot> masters;
    std::vector<unsigned> portToSlot;
    unsigned rrNext = 0;
    unsigned maxBurst;
    unsigned burstLeft = 0;
    unsigned burstOwner = noOwner;

    stats::Scalar grants;
    stats::Scalar stallCycles;

    probe::ProbePoint<MemRequest> _grantProbe{"xbar.grant"};
    probe::ProbePoint<MemResponse> _respondProbe{"xbar.respond"};
};

/**
 * Trace player that takes each response when it is delivered. It
 * replays streams and trace exactly like accel::TracePlayer; only the
 * response path differs. Object ids travel as request metadata.
 */
class RefTracePlayer : public TickingObject, public ResponseHandler
{
  public:
    static constexpr unsigned streamCredits = 16;

    RefTracePlayer(EventQueue &eq, stats::StatGroup *parent_stats,
                   std::string name, const workloads::KernelSpec &spec,
                   accel::InstanceTrace trace,
                   std::vector<BufferMapping> buffers, TaskId task,
                   PortId port);

    RequestPort &memSide() { return memSidePort; }
    void start(Cycles when);

    bool done() const { return phase == Phase::done; }
    bool failed() const { return _failed; }
    Cycles finishCycle() const { return _finishCycle; }

    probe::ProbePoint<MemRequest> &issueProbe() { return _issueProbe; }

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

    struct StreamBeat
    {
        MemCmd cmd;
        ObjectId obj;
        std::uint64_t off;
        std::uint32_t size;
    };

    bool issue(MemCmd cmd, ObjectId obj, std::uint64_t off,
               std::uint32_t size);
    bool pollSleep();
    bool responseSleep();
    void wakeOnResponse(bool denied);
    void finish();

    const workloads::KernelSpec &spec;
    accel::InstanceTrace trace;
    std::vector<BufferMapping> buffers;
    TaskId taskId;
    PortId port;
    RequestPort memSidePort;

    Phase phase = Phase::idle;
    std::vector<StreamBeat> inBeats;
    std::vector<StreamBeat> outBeats;
    std::size_t streamIndex = 0;
    std::size_t opIndex = 0;
    unsigned outstanding = 0;
    bool awaitRetry = false;
    static constexpr Cycles noCycle = ~Cycles{0};
    Cycles skippedAfter = noCycle;
    Cycles busyUntil = 0;
    bool _failed = false;
    Cycles _finishCycle = 0;
    std::uint64_t nextReqId = 0;

    stats::Scalar beatsIssued;
    stats::Scalar deniedResponses;

    probe::ProbePoint<MemRequest> _issueProbe{"accel.issue"};
};

} // namespace capcheck::oracle

#endif // CAPCHECK_TESTS_ORACLE_REF_PIPELINE_HH
