#include "obs/observer.hh"

#include <fstream>
#include <sstream>

#include "accel/trace_player.hh"
#include "base/json.hh"
#include "base/stats.hh"
#include "capchecker/capchecker.hh"
#include "driver/driver.hh"
#include "mem/interconnect.hh"
#include "mem/mem_ctrl.hh"
#include "mem/packet.hh"
#include "protect/check_stage.hh"
#include "sim/eventq.hh"

namespace capcheck::obs
{

namespace
{

/** Sampling stride for the high-frequency beat/grant counters. */
constexpr std::uint64_t counterStride = 256;

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

} // namespace

RunObserver::RunObserver(const ObsOptions &opts, EventQueue &eq,
                         const stats::StatGroup &stat_root)
    : opts(opts), eq(eq)
{
    if (!opts.samplesFile.empty() && opts.sampleInterval > 0) {
        sampler =
            std::make_unique<StatsSampler>(stat_root, opts.sampleInterval);
        sampler->attach(eq);
    }
    if (opts.flightRecording())
        flights = std::make_unique<FlightRecorder>(eq, opts.topN,
                                                   opts.runLabel);
}

RunObserver::~RunObserver()
{
    if (dueListener != probe::invalidListener)
        eq.cycleProbe().detach(dueListener);
}

unsigned
RunObserver::track(const std::string &label)
{
    const auto it = trackIds.find(label);
    if (it != trackIds.end())
        return it->second;
    const unsigned id = chromeTrace.addTrack(label);
    trackIds.emplace(label, id);
    return id;
}

void
RunObserver::attachChecker(capchecker::CapChecker &checker,
                           const std::string &label)
{
    lastChecker = &checker;
    const capchecker::Provenance mode = checker.provenance();

    checker.exceptionProbe().attach(
        [this, label, mode](const capchecker::ExceptionRecord &rec) {
            if (auditing())
                auditLog.record(eq.curCycle(), rec, mode);
            if (tracing()) {
                std::ostringstream args;
                args << "{\"task\":" << rec.task
                     << ",\"object\":" << rec.object << ",\"addr\":\""
                     << hex(rec.addr) << "\",\"reason\":\""
                     << json::escape(rec.reason) << "\"}";
                chromeTrace.instant(track(label), "violation",
                                    "security", eq.curCycle(),
                                    args.str());
            }
        });

    if (recording()) {
        checker.cacheHitProbe().attach(
            [this](const capchecker::CapCacheEvent &) {
                flights->onCacheHit();
            });
        checker.cacheMissProbe().attach(
            [this](const capchecker::CapCacheEvent &) {
                flights->onCacheMiss();
            });
    }

    if (!tracing())
        return;

    // One capCache counter series, bumped by hits and misses alike.
    const auto cache_counter = [this, label](std::uint64_t &count) {
        return [this, label, &count](const capchecker::CapCacheEvent &) {
            ++count;
            std::ostringstream series;
            series << "{\"hits\":" << cacheHits
                   << ",\"misses\":" << cacheMisses << "}";
            chromeTrace.counter(track(label), "capCache", eq.curCycle(),
                                series.str());
        };
    };
    checker.cacheHitProbe().attach(cache_counter(cacheHits));
    checker.cacheMissProbe().attach(cache_counter(cacheMisses));
    checker.evictProbe().attach(
        [this, label,
         &checker](const capchecker::CapEvictEvent &ev) {
            std::ostringstream series;
            series << "{\"entries\":" << checker.entriesUsed()
                   << ",\"freed\":" << ev.entriesFreed << "}";
            chromeTrace.counter(track(label), "capTable", eq.curCycle(),
                                series.str());
        });
}

void
RunObserver::attachCheckStage(protect::CheckStage &stage,
                              const std::string &label)
{
    if (recording())
        stage.timingProbe().attach(
            [this](const protect::CheckTimingEvent &ev) {
                flights->onCheck(*ev.req, ev.allowed, ev.start, ev.end);
            });
    if (!tracing())
        return;
    stage.timingProbe().attach(
        [this, label](const protect::CheckTimingEvent &ev) {
            std::ostringstream args;
            args << "{\"task\":" << ev.req->task << ",\"addr\":\""
                 << hex(ev.req->addr) << "\",\"allowed\":"
                 << (ev.allowed ? "true" : "false") << "}";
            const Cycles dur = ev.end > ev.start ? ev.end - ev.start : 1;
            chromeTrace.duration(track(label), "check", "check",
                                 ev.start, dur, args.str());
        });
}

void
RunObserver::attachMemory(MemoryController &mem)
{
    if (recording())
        mem.acceptProbe().attach([this](const TimedRequest &ev) {
            flights->onMemAccept(*ev.req, ev.cycle);
        });
    if (!tracing())
        return;
    if (dueListener == probe::invalidListener)
        dueListener = eq.cycleProbe().attach(
            [this](const Cycles &now) { recordDueMemBeats(now); });
    mem.respondProbe().attach([this](const MemResponse &resp) {
        ++memBeats;
        // Per-beat counter events would dominate the trace; sample
        // the cumulative count instead.
        if (memBeats == 1 || memBeats % counterStride == 0)
            dueMemBeats.push_back(DueCounter{resp.due, memBeats});
    });
}

void
RunObserver::recordDueMemBeats(Cycles now)
{
    while (!dueMemBeats.empty() && dueMemBeats.front().due <= now) {
        const DueCounter &due = dueMemBeats.front();
        std::ostringstream series;
        series << "{\"beats\":" << due.beats << "}";
        chromeTrace.counter(track("Memory"), "memBeats", due.due,
                            series.str());
        dueMemBeats.pop_front();
    }
}

void
RunObserver::attachXbar(AxiInterconnect &xbar, std::vector<bool> entry_ports)
{
    if (recording()) {
        xbar.offerProbe().attach([this](const TimedRequest &ev) {
            flights->onOffer(*ev.req, ev.cycle);
        });
        xbar.grantProbe().attach([this](const MemRequest &req) {
            flights->onGrant(req);
        });
        xbar.respondProbe().attach([this](const MemResponse &resp) {
            flights->onRespond(resp);
        });
    }
    if (!tracing())
        return;
    xbar.grantProbe().attach([this, ports = std::move(entry_ports)](
                                 const MemRequest &req) {
        if (req.srcPort >= ports.size() || !ports[req.srcPort])
            return;
        ++xbarGrants;
        if (xbarGrants == 1 || xbarGrants % counterStride == 0) {
            std::ostringstream series;
            series << "{\"grants\":" << xbarGrants << "}";
            chromeTrace.counter(track("Memory"), "xbarGrants",
                                eq.curCycle(), series.str());
        }
    });
}

void
RunObserver::attachPlayer(accel::TracePlayer &player)
{
    if (recording())
        player.issueProbe().attach([this](const TimedRequest &ev) {
            flights->onIssue(*ev.req, ev.cycle);
        });
    if (!tracing())
        return;
    // Reserve the track now so track order follows instance creation
    // order, not first-start order.
    player.startProbe().attach(
        [this](const accel::TaskLifecycleEvent &ev) {
            openTasks[ev.task] = OpenTask{track(*ev.name), ev.cycle};
        });
    player.finishProbe().attach(
        [this](const accel::TaskLifecycleEvent &ev) {
            const auto it = openTasks.find(ev.task);
            if (it == openTasks.end())
                return;
            std::ostringstream args;
            args << "{\"task\":" << ev.task << ",\"failed\":"
                 << (ev.failed ? "true" : "false") << "}";
            const Cycles start = it->second.start;
            const Cycles dur = ev.cycle > start ? ev.cycle - start : 1;
            chromeTrace.duration(it->second.track,
                                 "task " + std::to_string(ev.task),
                                 "task", start, dur, args.str());
            if (ev.failed)
                chromeTrace.instant(it->second.track, "abort",
                                    "security", ev.cycle,
                                    "{\"task\":" +
                                        std::to_string(ev.task) + "}");
            openTasks.erase(it);
        });
    track(player.name());
}

void
RunObserver::attachDriver(driver::Driver &drv)
{
    if (!tracing())
        return;
    drv.installProbe().attach(
        [this](const driver::CapInstallEvent &ev) {
            std::ostringstream args;
            args << "{\"task\":" << ev.task << ",\"object\":" << ev.object
                 << ",\"base\":\"" << hex(ev.base)
                 << "\",\"size\":" << ev.size << "}";
            chromeTrace.instant(track("Driver"), "capInstall", "driver",
                                eq.curCycle(), args.str());
            if (lastChecker) {
                std::ostringstream series;
                series << "{\"entries\":" << lastChecker->entriesUsed()
                       << ",\"freed\":0}";
                chromeTrace.counter(track("CapChecker"), "capTable",
                                    eq.curCycle(), series.str());
            }
        });
    drv.revokeProbe().attach([this](const driver::CapRevokeEvent &ev) {
        std::ostringstream args;
        args << "{\"task\":" << ev.task << ",\"buffers\":" << ev.buffers
             << ",\"hadException\":"
             << (ev.hadException ? "true" : "false") << "}";
        chromeTrace.instant(track("Driver"), "capRevoke", "driver",
                            eq.curCycle(), args.str());
    });
}

void
RunObserver::finalize(Cycles end_cycle)
{
    if (sampler) {
        sampler->finalize(end_cycle);
        sampler->writeFile(opts.samplesFile);
    }
    if (dueListener != probe::invalidListener) {
        recordDueMemBeats(~Cycles{0});
        eq.cycleProbe().detach(dueListener);
        dueListener = probe::invalidListener;
    }
    if (tracing())
        chromeTrace.writeFile(opts.traceFile);
    if (auditing())
        auditLog.writeFile(opts.auditFile);
    if (recording()) {
        if (!opts.flightFile.empty())
            flights->writeFlightsFile(opts.flightFile);
        if (!opts.latencyFile.empty())
            flights->writeLatencyFile(opts.latencyFile);
    }
}

void
RunObserver::writeEmptyOutputs(const ObsOptions &opts)
{
    if (!opts.traceFile.empty())
        ChromeTrace{}.writeFile(opts.traceFile);
    if (!opts.samplesFile.empty() && opts.sampleInterval > 0) {
        // A CPU-only run has no stat tree to sample; emit the shape
        // downstream tooling expects with an empty series.
        std::ofstream os(opts.samplesFile);
        if (os)
            os << "{\n  \"interval\": " << opts.sampleInterval
               << ",\n  \"samples\": []\n}\n";
    }
    if (!opts.auditFile.empty())
        std::ofstream{opts.auditFile};
    if (!opts.flightFile.empty())
        FlightRecorder::writeEmptyFlightsFile(opts.flightFile, opts.topN,
                                              opts.runLabel);
    if (!opts.latencyFile.empty())
        FlightRecorder::writeEmptyLatencyFile(opts.latencyFile,
                                              opts.runLabel);
}

} // namespace capcheck::obs
