#include "protect/check_stage.hh"

#include <algorithm>

#include "base/invariant.hh"
#include "obs/prof.hh"

namespace capcheck::protect
{

CheckStage::CheckStage(EventQueue &eq, stats::StatGroup *parent_stats,
                       ProtectionChecker &checker, std::string name)
    : SimObject(eq, std::move(name), parent_stats), checker(checker),
      cpuSidePort(*this, "cpu_side",
                  static_cast<TimingConsumer &>(*this)),
      memSidePort(*this, "mem_side",
                  static_cast<ResponseHandler &>(*this)),
      checked(stats, "checked", "requests checked"),
      denied(stats, "denied", "requests denied"),
      stallCycles(stats, "stallCycles",
                  "cycles the stage head waited for downstream",
                  [this] {
                      const Cycles now = curCycle();
                      const Cycles ready =
                          waiting.empty() ? now
                                          : readyCycle(waiting.front());
                      return static_cast<double>(
                          waited + std::max(now, ready) - ready);
                  })
{
}

std::size_t
CheckStage::depth()
{
    while (!exits.empty() && exits.front() <= curCycle())
        exits.pop_front();
    return exits.size() + waiting.size();
}

Cycles
CheckStage::readyCycle(const Checked &beat) const
{
    return std::max(beat.due, lastExit + (lastAllowed ? 1 : 0));
}

bool
CheckStage::tryAcceptAt(const MemRequest &req, Cycles when)
{
    PROF_SCOPE("capcheck", "stage.accept");
    const Cycles now = curCycle();
    INVARIANT(when == now,
              "%s: request (id %llu) handed over for cycle %llu on "
              "cycle %llu; a check stage takes requests on their grant "
              "cycle",
              name().c_str(), static_cast<unsigned long long>(req.id),
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now));
    // One new request per cycle (the check pipeline's issue rate).
    if (lastAcceptCycle == now) {
        cpuSidePort.sendRetry(now + 1);
        return false;
    }
    const std::size_t held = depth();
    if (held > checker.checkLatency() + 4) {
        // Downstream badly stalled: retry the crossbar above when the
        // oldest request leaves (known once a waiting one goes on).
        if (exits.empty())
            retryOwed = true;
        else
            cpuSidePort.sendRetry(exits.front());
        return false;
    }

    lastAcceptCycle = now;
    ++checked;
    const CheckResult verdict = checker.check(req);
    if (!verdict.allowed)
        ++denied;

    const Cycles latency =
        checker.checkLatency() + checker.lastExtraLatency();
    _timingProbe.notify(
        CheckTimingEvent{&req, verdict.allowed, now, now + latency});
    // Transparent pass-through (the "no method" configuration).
    const bool pass = latency == 0 && verdict.allowed && held == 0;
    const Checked beat{req, verdict.allowed,
                       now + std::max<Cycles>(latency, 1),
                       pass ? now : noCycle};
    if (!waiting.empty() || !leave(beat))
        waiting.push_back(beat);
    // The pipe leaves strictly FIFO, so a cache-miss walk making an
    // older request due *later* than a newer hit is legal (head-of-line
    // blocking); what must hold is the structural depth bound enforced
    // by the admission guard above.
    PARANOID_INVARIANT(exits.size() + waiting.size() <=
                           checker.checkLatency() + 5,
                       "check pipeline deeper than its structural bound "
                       "(%zu entries)",
                       exits.size() + waiting.size());
    return true;
}

bool
CheckStage::leave(const Checked &beat)
{
    const Cycles now = curCycle();
    // A pass-through goes on on its accept cycle, after the
    // arbitration that granted it, unless below took a request then.
    if (beat.passAt == now && forward(beat, now, now + 1)) {
        lastExit = now;
        lastAllowed = true;
        return true;
    }
    // The exit a pipe polled every cycle would reach: when the request
    // can leave, and for one that waited for the component below, the
    // cycle after that component freed up.
    const Cycles ready = readyCycle(beat);
    const Cycles exit = std::max(ready, now + 1);
    if (!beat.allowed)
        deny(beat.req, exit);
    else if (!forward(beat, exit, exit))
        return false;
    waited += exit - ready;
    exits.push_back(exit);
    lastExit = exit;
    lastAllowed = beat.allowed;
    return true;
}

bool
CheckStage::forward(const Checked &beat, Cycles when, Cycles grantable)
{
    // The paper's core security property, asserted at the memory
    // boundary: a request the checker denied is never forwarded.
    INVARIANT(beat.allowed,
              "denied request (id %llu) about to cross the memory "
              "boundary",
              static_cast<unsigned long long>(beat.req.id));
    return memSidePort.trySendAt(beat.req, when, grantable);
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

void
CheckStage::handleRetry(Cycles)
{
    // A crossbar below frees its slot on the current cycle.
    depth();
    while (!waiting.empty() && leave(waiting.front()))
        waiting.pop_front();
    if (retryOwed && !exits.empty()) {
        retryOwed = false;
        cpuSidePort.sendRetry(exits.front());
    }
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
