#include "mem/mem_ctrl.hh"

#include "base/invariant.hh"
#include "base/logging.hh"
#include "obs/prof.hh"

namespace capcheck
{

MemoryController::MemoryController(EventQueue &eq,
                                   stats::StatGroup *parent_stats,
                                   Cycles latency, std::string name)
    : SimObject(eq, std::move(name), parent_stats),
      cpuSidePort(*this, "cpu_side",
                  static_cast<TimingConsumer &>(*this)),
      _latency(latency),
      served(stats, "served", "requests served"),
      readBeats(stats, "readBeats", "read beats"),
      writeBeats(stats, "writeBeats", "write beats")
{
    if (latency == 0)
        fatal("MemoryController latency must be >= 1");
}

bool
MemoryController::tryAcceptAt(const MemRequest &req, Cycles when)
{
    PARANOID_INVARIANT(when >= curCycle(),
                       "memory accept for past cycle %llu at %llu",
                       static_cast<unsigned long long>(when),
                       static_cast<unsigned long long>(curCycle()));
    // One accept per cycle models the single DRAM channel.
    if (when < nextFree)
        return false;
    nextFree = when + 1;

    // Counted, not timed: the accounting costs less than two clock
    // reads, so its host time stays with the caller's scope.
    PROF_COUNT("mem", "memctrl.accept");
    ++served;
    if (req.cmd == MemCmd::read)
        ++readBeats;
    else
        ++writeBeats;
    _acceptProbe.notify(TimedRequest{&req, when});

    MemResponse resp;
    resp.id = req.id;
    resp.srcPort = req.srcPort;
    resp.ok = true;
    resp.due = when + _latency;
    _respondProbe.notify(resp);
    cpuSidePort.sendResponse(resp);
    return true;
}

} // namespace capcheck
