#include "harness/sweep_options.hh"

#include <cstdlib>
#include <filesystem>
#include <thread>

#include "base/logging.hh"
#include "harness/run_request.hh"

namespace capcheck::harness
{

SweepOptions
SweepOptions::fromEnvironment()
{
    SweepOptions opts;
    if (const char *dir = std::getenv("CAPCHECK_CACHE_DIR"))
        opts.cacheDir = dir;
    if (const char *cap = std::getenv("CAPCHECK_CACHE_MAX_BYTES"))
        opts.cacheMaxBytes = std::strtoull(cap, nullptr, 10);
    if (const char *sock = std::getenv("CAPCHECK_SERVER"))
        opts.serverSocket = sock;
    if (const char *trace = std::getenv("CAPCHECK_TRACE_ID"))
        opts.traceId = trace;
    return opts;
}

const std::vector<ObsSink> &
obsSinks()
{
    using S = SweepOptions;
    using O = obs::ObsOptions;
    static const std::vector<ObsSink> sinks = {
        {&S::traceDir, &O::traceFile, ".trace.json", true, "traceDir",
         "--trace-out", "DIR",
         "write run-<hash>.trace.json Chrome\n"
         "trace timelines (Perfetto-loadable)"},
        {nullptr, &O::samplesFile, ".samples.json", true,
         "sampleInterval", "--sample-interval", "N",
         "snapshot stats every N cycles into\n"
         "run-<hash>.samples.json"},
        {&S::auditDir, &O::auditFile, ".audit.jsonl", true, "auditDir",
         "--audit-log", "DIR",
         "write run-<hash>.audit.jsonl\n"
         "security audit logs"},
        {&S::flightDir, &O::flightFile, ".flights.json", true,
         "flightDir", "--flight-out", "DIR",
         "write run-<hash>.flights.json tables\n"
         "of the slowest DMA requests with\n"
         "per-hop latency breakdowns"},
        {&S::latencyDir, &O::latencyFile, ".latency.json", true,
         "latencyDir", "--latency-json", "DIR",
         "write run-<hash>.latency.json log2\n"
         "latency histograms (p50/p95/p99) and\n"
         "per-component cycle attribution"},
        {&S::profDir, &O::profileFile, ".prof.json", false, nullptr,
         "--prof-out", "DIR",
         "write run-<hash>.prof.json host-time\n"
         "profiles (per-domain self/total nanos\n"
         "and share-of-run; read with 'capstat\n"
         "prof'). Host wall-clock: enabling it\n"
         "never changes the simulated outputs.\n"
         "In-process runs only (no --server)"},
        {&S::foldedDir, &O::foldedFile, ".folded", false, nullptr,
         "--prof-folded", "DIR",
         "write run-<hash>.folded stacks for\n"
         "flamegraph.pl / speedscope"},
    };
    return sinks;
}

const std::string &
obsDir(const SweepOptions &opts, const ObsSink &sink)
{
    if (sink.dir)
        return opts.*sink.dir;
    // The one special case: samples have no directory flag, because
    // their flag, --sample-interval, has to carry the cadence. So they
    // land beside the run's trace, the timeline they annotate, or else
    // beside its result JSON.
    static const std::string off;
    if (opts.sampleInterval == 0)
        return off;
    return !opts.traceDir.empty() ? opts.traceDir : opts.jsonDir;
}

obs::ObsOptions
obsOptionsFor(const SweepOptions &opts, const RunRequest &request)
{
    obs::ObsOptions oo;
    const std::string hex = request.hashHex();
    for (const ObsSink &sink : obsSinks()) {
        const std::string &dir = obsDir(opts, sink);
        if (!dir.empty())
            oo.*sink.file = dir + "/run-" + hex + sink.suffix;
    }
    if (!oo.samplesFile.empty())
        oo.sampleInterval = opts.sampleInterval;
    if (oo.flightRecording() || oo.profiling()) {
        oo.topN = opts.topN;
        oo.runLabel = request.label();
    }
    return oo;
}

unsigned
resolveJobs(unsigned jobs)
{
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();
    return jobs == 0 ? 1 : jobs;
}

void
createObsDirs(const SweepOptions &opts)
{
    for (const ObsSink &sink : obsSinks()) {
        const std::string &dir = obsDir(opts, sink);
        if (dir.empty())
            continue;
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            warn("cannot create %s dir '%s': %s", sink.flag,
                 dir.c_str(), ec.message().c_str());
        }
    }
}

} // namespace capcheck::harness
