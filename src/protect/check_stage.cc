#include "protect/check_stage.hh"

#include <algorithm>

#include "base/invariant.hh"
#include "obs/prof.hh"
#include "base/logging.hh"

namespace capcheck::protect
{

CheckStage::CheckStage(EventQueue &eq, stats::StatGroup *parent_stats,
                       ProtectionChecker &checker, std::string name)
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
CheckStage::computesExits()
{
    if (timing == Timing::undecided)
        timing = memSidePort.peerAcceptsAhead() ? Timing::computed
                                                : Timing::ticked;
    return timing == Timing::computed;
}

std::size_t
CheckStage::depth()
{
    if (timing == Timing::ticked)
        return pipe.size();
    while (!exits.empty() && exits.front() <= curCycle())
        exits.pop_front();
    return exits.size();
}

bool
CheckStage::tryAccept(const MemRequest &req)
{
    PROF_SCOPE("capcheck", "stage.accept");
    // One new request per cycle (the check pipeline's issue rate).
    if (lastAcceptCycle == curCycle())
        return false;
    const bool computed = computesExits();
    if (depth() > checker.checkLatency() + 4)
        return false; // downstream badly stalled

    lastAcceptCycle = curCycle();
    ++checked;
    const CheckResult verdict = checker.check(req);
    if (!verdict.allowed)
        ++denied;

    const Cycles latency =
        checker.checkLatency() + checker.lastExtraLatency();
    _timingProbe.notify(CheckTimingEvent{&req, verdict.allowed,
                                         curCycle(),
                                         curCycle() + latency});
    if (computed) {
        forwardAt(req, verdict.allowed, latency);
        return true;
    }
    Cycles due = curCycle() + latency;
    if (latency == 0 && verdict.allowed && pipe.empty()) {
        // Transparent pass-through (the "no method" configuration).
        if (memSidePort.trySend(req))
            return true;
        // The crossbar below is taken: the checked beat waits in the
        // pipe and leaves from the next tick. Refusing it would make
        // the crossbar above offer it, and the stage check it, again.
        due = curCycle() + 1;
    }

    // The pipe drains strictly FIFO, so a cache-miss walk making an
    // older entry due *later* than a newer hit is legal (head-of-line
    // blocking); what must hold is the structural depth bound enforced
    // by the admission guard above.
    PARANOID_INVARIANT(pipe.size() <= checker.checkLatency() + 5,
                       "check pipeline deeper than its structural bound "
                       "(%zu entries)",
                       pipe.size());
    pipe.push_back(Staged{req, verdict.allowed, due});
    activate(due > curCycle() ? due - curCycle() : 1);
    return true;
}

void
CheckStage::forwardAt(const MemRequest &req, bool allowed, Cycles latency)
{
    const Cycles now = curCycle();
    if (latency == 0 && allowed && exits.empty() &&
        memSidePort.trySendAt(req, now)) {
        // Transparent pass-through (the "no method" configuration).
        lastExit = now;
        lastAllowed = true;
        return;
    }
    // The exit the ticked pipe would reach: the verdict's cycle, but
    // never the accept cycle (the stage's tick there has run) and never
    // before the request ahead has left, one forward per cycle. A
    // pass-through the controller refused (it took the request ahead
    // this cycle) waits here for the next cycle.
    const Cycles exit =
        std::max(now + std::max<Cycles>(latency, 1),
                 lastExit + (lastAllowed ? 1 : 0));
    PARANOID_INVARIANT(exits.size() <= checker.checkLatency() + 5,
                       "check pipeline deeper than its structural bound "
                       "(%zu entries)",
                       exits.size());
    exits.push_back(exit);
    lastExit = exit;
    lastAllowed = allowed;
    if (!allowed) {
        deny(req, exit);
        return;
    }
    const bool sent = memSidePort.trySendAt(req, exit);
    INVARIANT(sent,
              "%s: downstream refused request (id %llu) for its "
              "computed exit cycle %llu",
              name().c_str(), static_cast<unsigned long long>(req.id),
              static_cast<unsigned long long>(exit));
}

void
CheckStage::deny(const MemRequest &req, Cycles due)
{
    MemResponse resp;
    resp.id = req.id;
    resp.srcPort = req.srcPort;
    resp.ok = false;
    resp.due = due;
    cpuSidePort.sendResponse(resp);
}

bool
CheckStage::tick()
{
    while (!pipe.empty() && pipe.front().due <= curCycle()) {
        Staged &head = pipe.front();
        if (!head.allowed) {
            deny(head.req, curCycle());
            pipe.pop_front();
            continue;
        }
        // The paper's core security property, asserted at the memory
        // boundary: a request the checker denied is never forwarded.
        INVARIANT(head.allowed,
                  "denied request (id %llu) about to cross the memory "
                  "boundary",
                  static_cast<unsigned long long>(head.req.id));
        if (memSidePort.trySend(head.req)) {
            pipe.pop_front();
            // Only one forward per cycle (single downstream channel).
            break;
        }
        ++stallCycles;
        break;
    }
    return !pipe.empty();
}

void
CheckStage::handleResponse(const MemResponse &resp)
{
    // Memory responses pass through combinationally: the stage only
    // filters the request path, so a response keeps the due cycle the
    // controller stamped on it.
    cpuSidePort.sendResponse(resp);
}

} // namespace capcheck::protect
