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
RefMemoryController::tryAcceptAt(const MemRequest &req, Cycles when)
{
    if (when != curCycle())
        panic("%s: request for cycle %llu on cycle %llu",
              name().c_str(), static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curCycle()));
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
RefCheckStage::tryAcceptAt(const MemRequest &req, Cycles when)
{
    if (when != curCycle())
        panic("%s: request for cycle %llu on cycle %llu",
              name().c_str(), static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curCycle()));
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
        if (memSidePort.trySendAt(req, curCycle()))
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
        if (memSidePort.trySendAt(head.req, curCycle())) {
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

RefCrossbar::RefCrossbar(EventQueue &eq, stats::StatGroup *parent_stats,
                         unsigned num_masters, unsigned max_burst,
                         std::string name, unsigned levels_below)
    : TickingObject(eq, std::move(name), parent_stats,
                    Event::arbitratePrio + static_cast<int>(levels_below)),
      memSidePort(*this, "mem_side",
                  static_cast<ResponseHandler &>(*this)),
      masters(num_masters), maxBurst(max_burst ? max_burst : 1),
      grants(stats, "grants", "requests granted onto the bus"),
      stallCycles(stats, "stallCycles",
                  "cycles the winning request could not move downstream")
{
    if (Event::arbitratePrio + static_cast<int>(levels_below) >=
        Event::requestPrio)
        panic("%s: %u crossbar levels below it do not fit between "
              "arbitration and request priority",
              this->name().c_str(), levels_below);
    for (unsigned i = 0; i < num_masters; ++i) {
        masters[i].port = std::make_unique<ResponsePort>(
            *this, "accel_side" + std::to_string(i),
            [this, i](const MemRequest &req, Cycles when, Cycles) {
                if (when != curCycle())
                    panic("%s: beat for cycle %llu on cycle %llu",
                          this->name().c_str(),
                          static_cast<unsigned long long>(when),
                          static_cast<unsigned long long>(curCycle()));
                return offer(i, req);
            });
    }
}

bool
RefCrossbar::offer(unsigned slot, const MemRequest &req)
{
    MasterSlot &ms = masters[slot];
    if (ms.pending)
        return false;
    ms.pending = req;
    if (req.srcPort >= portToSlot.size())
        portToSlot.resize(req.srcPort + 1, ~0u);
    portToSlot[req.srcPort] = slot;
    activate(1);
    return true;
}

void
RefCrossbar::handleResponse(const MemResponse &resp)
{
    _respondProbe.notify(resp);
    masters[portToSlot.at(resp.srcPort)].port->sendResponse(resp);
}

void
RefCrossbar::grantBeat(MasterSlot &slot)
{
    ++grants;
    _grantProbe.notify(*slot.pending);
    slot.pending.reset();
    slot.port->sendRetry(curCycle());
}

bool
RefCrossbar::tick()
{
    if (burstLeft > 0 && !masters[burstOwner].pending) {
        burstLeft = 0;
        burstOwner = noOwner;
    }
    if (burstLeft > 0) {
        MasterSlot &slot = masters[burstOwner];
        if (memSidePort.trySendAt(*slot.pending, curCycle())) {
            grantBeat(slot);
            if (--burstLeft == 0)
                burstOwner = noOwner;
        } else {
            ++stallCycles;
        }
    } else {
        for (unsigned i = 0; i < masters.size(); ++i) {
            const unsigned port = (rrNext + i) % masters.size();
            MasterSlot &slot = masters[port];
            if (!slot.pending)
                continue;
            if (memSidePort.trySendAt(*slot.pending, curCycle())) {
                grantBeat(slot);
                rrNext = (port + 1) % masters.size();
                if (maxBurst > 1) {
                    burstOwner = port;
                    burstLeft = maxBurst - 1;
                }
            } else {
                ++stallCycles;
            }
            break;
        }
    }
    for (const MasterSlot &slot : masters) {
        if (slot.pending)
            return true;
    }
    return false;
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
    MemRequest req;
    req.cmd = cmd;
    req.size = size;
    req.srcPort = port;
    req.task = taskId;
    req.addr = buffers[obj].base + off;
    req.object = obj;
    req.id = nextReqId;
    if (!memSidePort.trySendAt(req, curCycle()))
        return false;
    ++nextReqId;
    _issueProbe.notify(req);
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
RefTracePlayer::handleRetry(Cycles)
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
