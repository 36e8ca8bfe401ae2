/**
 * @file
 * RunObserver: the bridge between component probe points and the
 * observability sinks. One observer serves one simulation run; it
 * attaches listeners to the probes of whatever components the system
 * wires up, translates probe payloads into Chrome-trace events,
 * audit-log records and stat samples, and writes the configured
 * output files at finalize(). With no observer attached the probes
 * cost a single branch, so untraced runs are unchanged.
 *
 * Every timestamp comes from the simulated EventQueue, so all outputs
 * are byte-identical regardless of --jobs.
 */

#ifndef CAPCHECK_OBS_OBSERVER_HH
#define CAPCHECK_OBS_OBSERVER_HH

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/probe.hh"
#include "base/types.hh"
#include "obs/audit.hh"
#include "obs/chrome_trace.hh"
#include "obs/flight.hh"
#include "obs/options.hh"
#include "obs/sampler.hh"

namespace capcheck
{
class EventQueue;
class MemoryController;
class AxiInterconnect;
namespace stats
{
class StatGroup;
}
namespace capchecker
{
class CapChecker;
}
namespace protect
{
class CheckStage;
}
namespace accel
{
class TracePlayer;
}
namespace driver
{
class Driver;
}
} // namespace capcheck

namespace capcheck::obs
{

class RunObserver
{
  public:
    RunObserver(const ObsOptions &opts, EventQueue &eq,
                const stats::StatGroup &stat_root);

    ~RunObserver();

    RunObserver(const RunObserver &) = delete;
    RunObserver &operator=(const RunObserver &) = delete;

    /**
     * @{ Attach to a component's probe points. The observer must
     * outlive the component (the component's probe points hold the
     * listener closures, so they drop them first on teardown).
     * @p label names the component's trace track. xbarGrants counts
     * only the grants of @p entry_ports, whose beats enter the
     * crossbar tree at @p xbar, so a cascade counts each beat once.
     */
    void attachChecker(capchecker::CapChecker &checker,
                       const std::string &label = "CapChecker");
    void attachCheckStage(protect::CheckStage &stage,
                          const std::string &label = "CapChecker");
    void attachMemory(MemoryController &mem);
    void attachXbar(AxiInterconnect &xbar, std::vector<bool> entry_ports);
    void attachPlayer(accel::TracePlayer &player);
    void attachDriver(driver::Driver &drv);
    /** @} */

    /**
     * Take the final stat sample at @p end_cycle and write every
     * configured output file. Must be called before the EventQueue
     * is destroyed (the sampler detaches from its cycle probe).
     */
    void finalize(Cycles end_cycle);

    const ChromeTrace &trace() const { return chromeTrace; }
    const AuditLog &audit() const { return auditLog; }

    /**
     * Emit valid-but-empty outputs for runs that never build an
     * EventQueue (CPU-only configs), so downstream tooling can rely
     * on the files existing whenever observability was requested.
     */
    static void writeEmptyOutputs(const ObsOptions &opts);

  private:
    /** Track id for @p label, creating the track on first use. */
    unsigned track(const std::string &label);

    bool tracing() const { return !opts.traceFile.empty(); }
    bool auditing() const { return !opts.auditFile.empty(); }
    bool recording() const { return flights != nullptr; }

    ObsOptions opts;
    EventQueue &eq;

    ChromeTrace chromeTrace;
    std::unique_ptr<StatsSampler> sampler;
    AuditLog auditLog;
    std::unique_ptr<FlightRecorder> flights;

    std::map<std::string, unsigned> trackIds;

    /** Open task intervals: task id -> (track, start cycle). */
    struct OpenTask
    {
        unsigned track;
        Cycles start;
    };
    std::map<TaskId, OpenTask> openTasks;

    /** Most recently attached checker (for table-occupancy counters). */
    capchecker::CapChecker *lastChecker = nullptr;

    /** Cumulative counters behind the counter-track events. */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t memBeats = 0;
    std::uint64_t xbarGrants = 0;

    /**
     * memBeats counter events whose response is not due yet. The
     * controller reports a response at accept; its counter event is
     * recorded when time reaches the due cycle, before that cycle's
     * events, where the response used to be delivered.
     */
    struct DueCounter
    {
        Cycles due;
        std::uint64_t beats;
    };
    std::deque<DueCounter> dueMemBeats;
    /** Listener on the cycle probe that records due counter events. */
    probe::ListenerHandle dueListener = probe::invalidListener;
    void recordDueMemBeats(Cycles now);
};

} // namespace capcheck::obs

#endif // CAPCHECK_OBS_OBSERVER_HH
