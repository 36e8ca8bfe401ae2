#include "accel/trace_player.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/trace.hh"
#include "capchecker/capchecker.hh"
#include "obs/prof.hh"

namespace capcheck::accel
{

TracePlayer::TracePlayer(EventQueue &eq, stats::StatGroup *parent_stats,
                         std::string name,
                         const workloads::KernelSpec &spec,
                         InstanceTrace trace,
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
    buildStreams();
}

void
TracePlayer::buildStreams()
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
TracePlayer::start(Cycles when)
{
    if (phase != Phase::idle)
        panic("%s: started twice", name().c_str());
    phase = Phase::streamIn;
    busyUntil = when + spec.timing.startupCycles;
    _startProbe.notify(
        TaskLifecycleEvent{taskId, &name(), when, false});
    const Cycles now = curCycle();
    activate(busyUntil > now ? busyUntil - now : 1);
}

bool
TracePlayer::issue(MemCmd cmd, ObjectId obj, std::uint64_t off,
                   std::uint32_t size)
{
    if (!memSidePort.canSend())
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

    _issueProbe.notify(req);
    memSidePort.trySend(req);
    ++outstanding;
    ++beatsIssued;
    return true;
}

void
TracePlayer::handleResponse(const MemResponse &resp)
{
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
        activate(responseWake(resp.due, !resp.ok) - curCycle());
}

void
TracePlayer::retireResponses()
{
    const Cycles now = curCycle();
    std::size_t kept = 0;
    for (const Pending &resp : pending) {
        if (resp.due > now) {
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
    Cycles wake = noCycle;
    for (const Pending &resp : pending) {
        if (!resp.ok || !awaitRetry)
            wake = std::min(wake, responseWake(resp.due, !resp.ok));
    }
    if (wake != noCycle)
        activate(wake - curCycle());
}

void
TracePlayer::handleRetry()
{
    // The player sleeps between issues; the crossbar's grant just
    // freed our slot, so tick again later this same cycle (the grant
    // runs at arbitratePrio, our tick at requestPrio — the cycle a
    // per-cycle poll would issue on). Only honoured while awaitRetry
    // is armed, i.e. where a polling player would be polling: a retry
    // arriving while the player sleeps on a response-driven
    // precondition must not wake us, because the response reactivates
    // the player one cycle later and a same-cycle grant would issue a
    // cycle early.
    if (awaitRetry)
        activate(0);
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
    skippedAfter = curCycle();
    return false;
}

void
TracePlayer::finish()
{
    phase = Phase::done;
    _finishCycle = curCycle();
    _finishProbe.notify(
        TaskLifecycleEvent{taskId, &name(), _finishCycle, _failed});
    if (doneFn)
        doneFn();
}

bool
TracePlayer::tick()
{
    PROF_SCOPE("replay", "player.tick");
    retireResponses();
    // Every return path of body() re-decides how the player may be
    // woken: only pollSleep() arms the grant retry, and only the
    // skipped-tick paths record skippedAfter.
    awaitRetry = false;
    skippedAfter = noCycle;
    if (body())
        return true; // ticks next cycle, before any pending response
    armResponseWake();
    return false;
}

bool
TracePlayer::body()
{
    if (phase == Phase::idle || phase == Phase::done)
        return false;

    if (_failed) {
        // Abort: stop issuing, wait for in-flight beats to drain.
        if (outstanding == 0) {
            finish();
            return false;
        }
        return false; // reactivated by responses
    }

    if (busyUntil > curCycle()) {
        activate(busyUntil - curCycle());
        return false;
    }

    switch (phase) {
      case Phase::streamIn:
      case Phase::streamOut: {
        const std::vector<StreamBeat> &beats =
            phase == Phase::streamIn ? inBeats : outBeats;
        if (streamIndex >= beats.size()) {
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
            return false; // reactivated by a response
        const StreamBeat &beat = beats[streamIndex];
        if (issue(beat.cmd, beat.obj, beat.off, beat.size)) {
            ++streamIndex;
            if (outstanding >= streamCredits)
                return responseSleep();
        }
        return pollSleep();
      }

      case Phase::body: {
        if (opIndex >= trace.size()) {
            phase = Phase::streamOut;
            streamIndex = 0;
            return true;
        }
        const TraceRecord op = trace.at(opIndex);
        switch (op.kind) {
          case TraceRecord::Kind::delay:
            ++opIndex;
            if (op.cycles == 0)
                return true;
            busyUntil = curCycle() + op.cycles;
            activate(op.cycles);
            return false;
          case TraceRecord::Kind::barrier:
            if (outstanding > 0)
                return false; // reactivated by responses
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
                busyUntil = curCycle() + 1 + op.cycles;
                activate(1 + op.cycles);
                skippedAfter = curCycle();
                return false;
            }
            if (opIndex >= trace.size()) {
                // The phase transition is clocked off the next tick.
                return true;
            }
            const TraceRecord::Kind next = trace.at(opIndex).kind;
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

      case Phase::drain:
      case Phase::idle:
      case Phase::done:
        break;
    }
    return false;
}

} // namespace capcheck::accel
