#include "accel/trace_player.hh"

#include "base/invariant.hh"
#include "base/logging.hh"
#include "base/trace.hh"
#include "capchecker/capchecker.hh"
#include "obs/prof.hh"

namespace capcheck::accel
{

TracePlayer::TracePlayer(EventQueue &eq, stats::StatGroup *parent_stats,
                         std::string name,
                         const workloads::KernelSpec &spec,
                         std::shared_ptr<const InstanceTrace> trace,
                         std::vector<BufferMapping> buffers, TaskId task,
                         PortId port, AddressingMode addressing)
    : TickingObject(eq, std::move(name), parent_stats,
                    Event::requestPrio),
      spec(spec), trace(std::move(trace)), buffers(std::move(buffers)),
      taskId(task), port(port),
      memSidePort(*this, "mem_side",
                  static_cast<ResponseHandler &>(*this)),
      addressing(addressing),
      beatsIssued(stats, "beats", "DMA beats issued"),
      deniedResponses(stats, "denied", "beats denied by protection")
{
}

ObjectId
TracePlayer::streamObject(ObjectId obj) const
{
    using workloads::BufferAccess;
    using workloads::BufferPlacement;

    // Streaming in reads every streamed buffer the kernel reads;
    // streaming out writes back every one it writes. Each is moved in
    // 8-byte beats, object by object.
    const BufferAccess skipped = phase == Phase::streamIn
                                     ? BufferAccess::writeOnly
                                     : BufferAccess::readOnly;
    for (; obj < spec.buffers.size(); ++obj) {
        const workloads::BufferDef &def = spec.buffers[obj];
        if (def.placement == BufferPlacement::streamed &&
            def.access != skipped && def.size > 0)
            break;
    }
    return obj;
}

void
TracePlayer::startStream(Phase stream_phase)
{
    phase = stream_phase;
    streamObj = streamObject(0);
    streamOff = 0;
}

void
TracePlayer::start(Cycles when)
{
    if (phase != Phase::idle)
        panic("%s: started twice", name().c_str());
    startStream(Phase::streamIn);
    busyUntil = when + spec.timing.startupCycles;
    _startProbe.notify(
        TaskLifecycleEvent{taskId, &name(), when, false});
    const Cycles now = curCycle();
    wakeAt(busyUntil > now ? busyUntil : now + 1);
    settle();
}

bool
TracePlayer::issue(MemCmd cmd, ObjectId obj, std::uint64_t off,
                   std::uint32_t size)
{
    if (slotFull)
        return false;

    MemRequest req;
    req.cmd = cmd;
    req.size = size;
    req.srcPort = port;
    req.task = taskId;
    const Addr phys = buffers[obj].base + off;
    if (addressing.objectInAddress) {
        req.addr =
            (Addr{obj} << capchecker::CapChecker::coarseAddrBits) | phys;
        req.object = invalidObjectId;
    } else {
        req.addr = phys;
        req.object = addressing.objectMetadata ? obj : invalidObjectId;
    }
    req.id = nextReqId++;

    _issueProbe.notify(TimedRequest{&req, at});
    // The beat waits in the crossbar slot from this cycle on; the
    // grant's retry frees the slot again.
    const bool entered = memSidePort.trySendAt(req, at);
    INVARIANT(entered,
              "%s: crossbar slot refused beat %llu although its last "
              "beat was granted",
              name().c_str(), static_cast<unsigned long long>(req.id));
    slotFull = true;
    ++outstanding;
    ++beatsIssued;
    return true;
}

void
TracePlayer::handleResponse(const MemResponse &resp)
{
    catchUp();
    if (pending.size() >= outstanding)
        panic("%s: response with nothing outstanding", name().c_str());
    // The response takes effect on its due cycle: the first tick at or
    // after it retires it (retireResponses()).
    pending.push_back(Pending{resp.due, resp.ok});
    // While the retry wake is armed the player is waiting on its
    // crossbar slot, and a response alone cannot unblock the next
    // issue — only the grant that frees the slot can (and its retry
    // wakes us). Skipping the wake here drops one no-op tick per
    // in-flight beat.
    if (!resp.ok || !awaitRetry)
        wakeAt(responseWake(resp.due, !resp.ok));
    // A beat in the slot leaves the ticks to its grant (no event).
    if (!slotFull)
        settle();
}

void
TracePlayer::retireResponses()
{
    std::size_t kept = 0;
    for (const Pending &resp : pending) {
        if (resp.due > at) {
            pending[kept++] = resp;
            continue;
        }
        --outstanding;
        if (!resp.ok) {
            ++deniedResponses;
            // The CapChecker blocked this access: the instance aborts
            // and the driver will observe the exception flag.
            _failed = true;
            CAPCHECK_DPRINTF(debug::accel, "%s: beat denied, aborting",
                             name().c_str());
        }
    }
    pending.resize(kept);
}

Cycles
TracePlayer::responseWake(Cycles due, bool denied) const
{
    // Where the last tick skipped its successor, a response on the
    // skipped tick's cycle stands in for it: the polling player ran
    // that tick after every response of the cycle, so tick on that
    // very cycle (responses land before requestPrio). Otherwise the
    // response is seen on the next cycle's tick. A skipped tick that
    // would only have started the delay now running (busyUntil lies
    // ahead) is needed only by a denial, which it would have seen
    // before the delay.
    const bool on_skipped_tick = skippedAfter != noCycle &&
                                 due == skippedAfter + 1 &&
                                 (denied || busyUntil <= due);
    return on_skipped_tick ? due : due + 1;
}

void
TracePlayer::armResponseWake()
{
    // The wake rules read only state the last tick set, so each
    // pending response's wake stays what it was when it arrived until
    // the next tick re-arms them here.
    for (const Pending &resp : pending) {
        if (!resp.ok || !awaitRetry)
            wakeAt(responseWake(resp.due, !resp.ok));
    }
}

void
TracePlayer::handleRetry(Cycles when)
{
    // The crossbar granted the beat in our slot on @p when, this
    // cycle. The ticks before it found the slot full; then, where a
    // polling player would be polling (awaitRetry), tick on the
    // grant's cycle (the grant runs at arbitratePrio, a tick at
    // requestPrio — the cycle a per-cycle poll would issue on). A
    // retry while the player sleeps on a response-driven precondition
    // must not wake it: the response wakes it one cycle later, and a
    // same-cycle wake would issue a cycle early.
    catchUp();
    slotFull = false;
    if (awaitRetry)
        wakeAt(when);
    settle();
}

bool
TracePlayer::pollSleep()
{
    // A polling player would keep ticking every cycle from here (the
    // ticks do no work until the slot state changes); sleep instead
    // and let the grant retry re-arm the tick on the issuing cycle.
    awaitRetry = true;
    return false;
}

bool
TracePlayer::responseSleep()
{
    // A polling player would take one more tick, find the credit
    // window full or the barrier waiting, and fall into
    // response-driven sleep. Sleep now instead and let
    // responseWake() stand in for that tick. The retry wake stays
    // disarmed: a grant landing on the same cycle as the
    // credit-freeing response would otherwise pull the next issue one
    // cycle early (grants fire at arbitratePrio, after the response
    // has already dropped `outstanding` below the cap).
    skippedAfter = at;
    return false;
}

void
TracePlayer::finish()
{
    phase = Phase::done;
    _finishCycle = at;
}

void
TracePlayer::catchUp()
{
    // Ticks before this cycle wait only while the slot is full (the
    // grant decides them); everything they read is settled by now.
    while (wake < curCycle())
        runTick(wake);
}

void
TracePlayer::settle()
{
    // With every response in and the slot free, nothing but the trace
    // decides the coming ticks: run them now, up to the next issue.
    const auto settled = [this] {
        return wake != noCycle && !slotFull &&
               pending.size() == outstanding && phase != Phase::done;
    };
    if (settled()) {
        PROF_SCOPE("replay", "player.advance");
        do {
            runTick(wake);
        } while (settled());
    }
    // The player's event: the finish, reported on its cycle, or the
    // next tick while a late response may still change it. A beat
    // waiting in the slot leaves the ticks to its grant.
    Cycles when = noCycle;
    if (phase == Phase::done)
        when = finishReported ? noCycle : _finishCycle;
    else if (!slotFull)
        when = wake;
    if (when == noCycle)
        deactivate();
    else
        tickAt(when);
}

bool
TracePlayer::tick()
{
    PROF_SCOPE("replay", "player.tick");
    if (phase != Phase::done) {
        INVARIANT(wake == curCycle(),
                  "%s: event on cycle %llu, next tick on %llu",
                  name().c_str(),
                  static_cast<unsigned long long>(curCycle()),
                  static_cast<unsigned long long>(wake));
        runTick(curCycle());
    }
    if (phase == Phase::done && !finishReported &&
        _finishCycle == curCycle()) {
        finishReported = true;
        _finishProbe.notify(
            TaskLifecycleEvent{taskId, &name(), _finishCycle, _failed});
        if (doneFn)
            doneFn();
    }
    settle();
    return false;
}

void
TracePlayer::runTick(Cycles cycle)
{
    at = cycle;
    wake = noCycle;
    retireResponses();
    // Every return path of body() re-decides how the player may be
    // woken: only pollSleep() arms the grant retry, and only the
    // skipped-tick paths record skippedAfter.
    awaitRetry = false;
    skippedAfter = noCycle;
    if (body())
        wakeAt(at + 1); // ticks next cycle, before any pending response
    else
        armResponseWake();
}

bool
TracePlayer::body()
{
    if (phase == Phase::idle || phase == Phase::done)
        return false;

    if (_failed) {
        // Abort: stop issuing, wait for in-flight beats to drain.
        if (outstanding == 0)
            finish();
        return false; // else woken by responses
    }

    if (busyUntil > at) {
        wakeAt(busyUntil);
        return false;
    }

    switch (phase) {
      case Phase::streamIn:
      case Phase::streamOut: {
        if (streamObj >= spec.buffers.size()) {
            if (outstanding > 0)
                return false; // drain before switching phase
            if (phase == Phase::streamIn) {
                phase = Phase::body;
                opIndex = 0;
                return true;
            }
            finish();
            return false;
        }
        if (outstanding >= streamCredits)
            return false; // woken by a response
        const std::uint64_t bytes = spec.buffers[streamObj].size;
        const auto size = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(8, bytes - streamOff));
        const MemCmd cmd =
            phase == Phase::streamIn ? MemCmd::read : MemCmd::write;
        if (issue(cmd, streamObj, streamOff, size)) {
            streamOff += 8;
            if (streamOff >= bytes) {
                streamObj = streamObject(streamObj + 1);
                streamOff = 0;
            }
            if (outstanding >= streamCredits)
                return responseSleep();
        }
        return pollSleep();
      }

      case Phase::body: {
        if (opIndex >= trace->size()) {
            startStream(Phase::streamOut);
            return true;
        }
        const TraceRecord op = trace->at(opIndex);
        switch (op.kind) {
          case TraceRecord::Kind::delay:
            ++opIndex;
            if (op.cycles == 0)
                return true;
            busyUntil = at + op.cycles;
            wakeAt(busyUntil);
            return false;
          case TraceRecord::Kind::barrier:
            if (outstanding > 0)
                return false; // woken by responses
            ++opIndex;
            return true;
          case TraceRecord::Kind::access: {
            if (outstanding >= spec.timing.maxOutstanding)
                return false;
            if (!issue(op.cmd, op.obj, op.off, op.size))
                return pollSleep();
            ++opIndex;
            if (op.cycles > 0) {
                // The next cycle's tick would only start the fused
                // delay: start it now, ending where that tick would
                // have.
                busyUntil = at + 1 + op.cycles;
                wakeAt(busyUntil);
                skippedAfter = at;
                return false;
            }
            if (opIndex >= trace->size()) {
                // The phase transition is clocked off the next tick.
                return true;
            }
            const TraceRecord::Kind next = trace->at(opIndex).kind;
            // A barrier waits at least on the beat just issued.
            if (next == TraceRecord::Kind::barrier ||
                (next == TraceRecord::Kind::access &&
                 outstanding >= spec.timing.maxOutstanding))
                return responseSleep();
            if (next == TraceRecord::Kind::delay) {
                // A zero-cycle delay (canonical traces fold every
                // longer one into the access) is clocked off the next
                // cycle's tick.
                return true;
            }
            // Next op is another beat: sleep until the grant retry,
            // which lands on the cycle a poll would issue on.
            return pollSleep();
          }
        }
        return true;
      }

      case Phase::idle:
      case Phase::done:
        break;
    }
    return false;
}

} // namespace capcheck::accel
