#include "ref_pipeline.hh"

#include <algorithm>

#include "base/logging.hh"

namespace capcheck::oracle
{

RefMemoryController::RefMemoryController(EventQueue &eq,
                                         stats::StatGroup *parent_stats,
                                         Cycles latency, std::string name)
    : SimObject(eq, std::move(name), parent_stats),
      cpuSidePort(*this, "cpu_side",
                  static_cast<TimingConsumer &>(*this)),
      latency(latency), respondEvent(*this),
      served(stats, "served", "requests served"),
      readBeats(stats, "readBeats", "read beats"),
      writeBeats(stats, "writeBeats", "write beats")
{
}

bool
RefMemoryController::tryAccept(const MemRequest &req)
{
    if (lastAcceptCycle == curCycle())
        return false;
    lastAcceptCycle = curCycle();
    ++served;
    if (req.cmd == MemCmd::read)
        ++readBeats;
    else
        ++writeBeats;

    MemResponse resp;
    resp.id = req.id;
    resp.srcPort = req.srcPort;
    resp.ok = true;
    resp.due = curCycle() + latency;
    pipeline.push_back(resp);
    if (!respondEvent.scheduled())
        eq.schedule(&respondEvent, pipeline.front().due);
    return true;
}

void
RefMemoryController::deliver()
{
    while (!pipeline.empty() && pipeline.front().due <= curCycle()) {
        cpuSidePort.sendResponse(pipeline.front());
        pipeline.pop_front();
    }
    if (!pipeline.empty())
        eq.schedule(&respondEvent, pipeline.front().due);
}

RefCheckStage::RefCheckStage(EventQueue &eq,
                             stats::StatGroup *parent_stats,
                             protect::ProtectionChecker &checker,
                             std::string name)
    : TickingObject(eq, std::move(name), parent_stats,
                    Event::checkPrio),
      checker(checker),
      cpuSidePort(*this, "cpu_side",
                  static_cast<TimingConsumer &>(*this)),
      memSidePort(*this, "mem_side",
                  static_cast<ResponseHandler &>(*this)),
      checked(stats, "checked", "requests checked"),
      denied(stats, "denied", "requests denied"),
      stallCycles(stats, "stallCycles",
                  "cycles the stage head waited for downstream")
{
}

bool
RefCheckStage::tryAccept(const MemRequest &req)
{
    if (lastAcceptCycle == curCycle())
        return false;
    if (pipe.size() > checker.checkLatency() + 4)
        return false;

    lastAcceptCycle = curCycle();
    ++checked;
    const protect::CheckResult verdict = checker.check(req);
    if (!verdict.allowed)
        ++denied;

    const Cycles latency =
        checker.checkLatency() + checker.lastExtraLatency();
    Cycles due = curCycle() + latency;
    if (latency == 0 && verdict.allowed && pipe.empty()) {
        if (memSidePort.trySend(req))
            return true;
        // Below is taken this cycle: wait in the pipe for the next one.
        due = curCycle() + 1;
    }
    pipe.push_back(Staged{req, verdict.allowed, due});
    activate(due > curCycle() ? due - curCycle() : 1);
    return true;
}

bool
RefCheckStage::tick()
{
    while (!pipe.empty() && pipe.front().due <= curCycle()) {
        Staged &head = pipe.front();
        if (!head.allowed) {
            MemResponse resp;
            resp.id = head.req.id;
            resp.srcPort = head.req.srcPort;
            resp.ok = false;
            resp.due = curCycle();
            cpuSidePort.sendResponse(resp);
            pipe.pop_front();
            continue;
        }
        if (memSidePort.trySend(head.req)) {
            pipe.pop_front();
            break;
        }
        ++stallCycles;
        break;
    }
    return !pipe.empty();
}

void
RefCheckStage::handleResponse(const MemResponse &resp)
{
    cpuSidePort.sendResponse(resp);
}

RefTracePlayer::RefTracePlayer(EventQueue &eq,
                               stats::StatGroup *parent_stats,
                               std::string name,
                               const workloads::KernelSpec &spec,
                               accel::InstanceTrace trace,
                               std::vector<BufferMapping> buffers,
                               TaskId task, PortId port)
    : TickingObject(eq, std::move(name), parent_stats,
                    Event::requestPrio),
      spec(spec), trace(std::move(trace)), buffers(std::move(buffers)),
      taskId(task), port(port),
      memSidePort(*this, "mem_side",
                  static_cast<ResponseHandler &>(*this)),
      beatsIssued(stats, "beats", "DMA beats issued"),
      deniedResponses(stats, "denied", "beats denied by protection")
{
    using workloads::BufferAccess;
    using workloads::BufferPlacement;
    for (ObjectId obj = 0; obj < spec.buffers.size(); ++obj) {
        const workloads::BufferDef &def = spec.buffers[obj];
        if (def.placement != BufferPlacement::streamed)
            continue;
        for (std::uint64_t off = 0; off < def.size; off += 8) {
            const auto size = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(8, def.size - off));
            if (def.access != BufferAccess::writeOnly)
                inBeats.push_back(
                    StreamBeat{MemCmd::read, obj, off, size});
            if (def.access != BufferAccess::readOnly)
                outBeats.push_back(
                    StreamBeat{MemCmd::write, obj, off, size});
        }
    }
}

void
RefTracePlayer::start(Cycles when)
{
    phase = Phase::streamIn;
    busyUntil = when + spec.timing.startupCycles;
    const Cycles now = curCycle();
    activate(busyUntil > now ? busyUntil - now : 1);
}

bool
RefTracePlayer::issue(MemCmd cmd, ObjectId obj, std::uint64_t off,
                      std::uint32_t size)
{
    if (!memSidePort.canSend())
        return false;
    MemRequest req;
    req.cmd = cmd;
    req.size = size;
    req.srcPort = port;
    req.task = taskId;
    req.addr = buffers[obj].base + off;
    req.object = obj;
    req.id = nextReqId++;
    _issueProbe.notify(req);
    memSidePort.trySend(req);
    ++outstanding;
    ++beatsIssued;
    return true;
}

void
RefTracePlayer::handleResponse(const MemResponse &resp)
{
    if (outstanding == 0)
        panic("%s: response with nothing outstanding", name().c_str());
    --outstanding;
    if (!resp.ok) {
        ++deniedResponses;
        _failed = true;
        wakeOnResponse(true);
        return;
    }
    if (!awaitRetry)
        wakeOnResponse(false);
}

void
RefTracePlayer::wakeOnResponse(bool denied)
{
    const bool on_skipped_tick =
        skippedAfter != noCycle && curCycle() == skippedAfter + 1 &&
        (denied || busyUntil <= curCycle());
    activate(on_skipped_tick ? 0 : 1);
}

void
RefTracePlayer::handleRetry()
{
    if (awaitRetry)
        activate(0);
}

bool
RefTracePlayer::pollSleep()
{
    awaitRetry = true;
    return false;
}

bool
RefTracePlayer::responseSleep()
{
    skippedAfter = curCycle();
    return false;
}

void
RefTracePlayer::finish()
{
    phase = Phase::done;
    _finishCycle = curCycle();
}

bool
RefTracePlayer::tick()
{
    awaitRetry = false;
    skippedAfter = noCycle;

    if (phase == Phase::idle || phase == Phase::done)
        return false;
    if (_failed) {
        if (outstanding == 0)
            finish();
        return false;
    }
    if (busyUntil > curCycle()) {
        activate(busyUntil - curCycle());
        return false;
    }

    if (phase != Phase::body) {
        const std::vector<StreamBeat> &beats =
            phase == Phase::streamIn ? inBeats : outBeats;
        if (streamIndex >= beats.size()) {
            if (outstanding > 0)
                return false;
            if (phase == Phase::streamIn) {
                phase = Phase::body;
                opIndex = 0;
                return true;
            }
            finish();
            return false;
        }
        if (outstanding >= streamCredits)
            return false;
        const StreamBeat &beat = beats[streamIndex];
        if (issue(beat.cmd, beat.obj, beat.off, beat.size)) {
            ++streamIndex;
            if (outstanding >= streamCredits)
                return responseSleep();
        }
        return pollSleep();
    }

    if (opIndex >= trace.size()) {
        phase = Phase::streamOut;
        streamIndex = 0;
        return true;
    }
    using Kind = accel::TraceRecord::Kind;
    const accel::TraceRecord op = trace.at(opIndex);
    switch (op.kind) {
      case Kind::delay:
        ++opIndex;
        if (op.cycles == 0)
            return true;
        busyUntil = curCycle() + op.cycles;
        activate(op.cycles);
        return false;
      case Kind::barrier:
        if (outstanding > 0)
            return false;
        ++opIndex;
        return true;
      case Kind::access:
        break;
    }
    if (outstanding >= spec.timing.maxOutstanding)
        return false;
    if (!issue(op.cmd, op.obj, op.off, op.size))
        return pollSleep();
    ++opIndex;
    if (op.cycles > 0) {
        busyUntil = curCycle() + 1 + op.cycles;
        activate(1 + op.cycles);
        skippedAfter = curCycle();
        return false;
    }
    if (opIndex >= trace.size())
        return true;
    const Kind next = trace.at(opIndex).kind;
    if (next == Kind::barrier ||
        (next == Kind::access &&
         outstanding >= spec.timing.maxOutstanding))
        return responseSleep();
    if (next == Kind::delay)
        return true;
    return pollSleep();
}

} // namespace capcheck::oracle
