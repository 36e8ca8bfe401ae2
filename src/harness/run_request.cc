#include "harness/run_request.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>

#include "base/logging.hh"
#include "obs/prof.hh"
#include "system/soc_config_builder.hh"

namespace capcheck::harness
{

namespace
{

/**
 * FNV-1a, fed field by field with explicit widths so the hash is a
 * function of the request's *values*, not of struct layout or padding.
 */
class FieldHasher
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void u32(std::uint32_t v) { u64(v); }
    void boolean(bool v) { u64(v ? 1 : 0); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ull;
        }
    }

    std::uint64_t digest() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

void
hashConfig(FieldHasher &h, const system::SocConfig &cfg)
{
    h.u32(static_cast<std::uint32_t>(cfg.mode));
    h.u32(static_cast<std::uint32_t>(cfg.provenance));
    h.u32(cfg.numInstances);
    h.u32(cfg.capTableEntries);
    h.u64(cfg.checkCycles);
    h.boolean(cfg.perAccelCheckers);
    h.u32(cfg.capCacheEntries);
    h.u64(cfg.capCacheWalkCycles);
    h.u64(cfg.memLatency);
    h.u64(cfg.memBytes);
    h.u32(cfg.xbarMaxBurst);
    h.u64(cfg.guardBytes);
    h.boolean(cfg.collectStats);

    const CpuCostParams &cpu = cfg.cpuCosts;
    h.u64(cpu.intOp);
    h.u64(cpu.fpOp);
    h.u64(cpu.loadHit);
    h.u64(cpu.storeHit);
    h.u64(cpu.missPenalty);
    h.u64(cpu.copyPerWord);
    h.u32(cpu.cheriTagMissInterval);
    h.u64(cpu.cheriCapSetup);

    const driver::DriverCostParams &drv = cfg.driverCosts;
    h.u64(drv.mallocCall);
    h.u64(drv.freeCall);
    h.u64(drv.controlRegWrite);
    h.u64(drv.capDerive);
    h.u64(drv.pointerSetup);
    h.u64(drv.iommuMapPerPage);
    h.u64(drv.iommuUnmapPerPage);
    h.u64(drv.iopmpRegionSetup);
    h.u64(drv.scrubPerWord);

    h.u64(cfg.seed);

    // Mixed only when present so every pre-topology hash (and any
    // cached result keyed by it) stays stable for builtin topologies.
    // The path names the run (label, result JSON); the file's bytes
    // make an edit in place a new request instead of a stale cache
    // hit. An unreadable file hashes as empty (the run then fails).
    if (!cfg.topologyFile.empty()) {
        h.str("topology");
        h.str(cfg.topologyFile);
        std::ifstream in(cfg.topologyFile, std::ios::binary);
        h.str(std::string(std::istreambuf_iterator<char>(in), {}));
    }
}

} // namespace

RunRequest
RunRequest::single(std::string benchmark, system::SocConfig cfg,
                   unsigned num_tasks)
{
    RunRequest req;
    req.benchmarks.push_back(std::move(benchmark));
    req.numTasks = num_tasks != 0 ? num_tasks : cfg.numInstances;
    req.config = std::move(cfg);
    return req;
}

RunRequest
RunRequest::mixed(std::vector<std::string> benchmarks,
                  system::SocConfig cfg)
{
    if (benchmarks.empty())
        fatal("RunRequest::mixed: empty benchmark list");
    RunRequest req;
    req.numTasks = static_cast<unsigned>(benchmarks.size());
    req.benchmarks = std::move(benchmarks);
    req.config = std::move(cfg);
    return req;
}

std::uint64_t
RunRequest::hash() const
{
    FieldHasher h;
    h.u64(benchmarks.size());
    for (const std::string &b : benchmarks)
        h.str(b);
    h.u32(numTasks);
    hashConfig(h, config);
    return h.digest();
}

std::string
firstInvalid(const std::vector<RunRequest> &requests)
{
    for (const RunRequest &req : requests) {
        const std::string errors = system::validationErrors(req.config);
        if (!errors.empty())
            return "invalid request [" + req.label() + "]: " + errors;
    }
    return {};
}

std::string
hashHex(std::uint64_t hash)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::string
RunRequest::hashHex() const
{
    return harness::hashHex(hash());
}

std::string
RunRequest::label() const
{
    std::string name;
    if (isMixed()) {
        name = "mixed[" + std::to_string(benchmarks.size()) + ":" +
               benchmarks.front() + ",...]";
    } else {
        name = benchmarks.front();
    }
    name += " mode=" + std::string(system::systemModeName(config.mode)) +
            " tasks=" + std::to_string(numTasks) +
            " seed=" + std::to_string(config.seed);
    if (!config.topologyFile.empty())
        name += " topology=" + config.topologyFile;
    return name;
}

system::RunResult
RunRequest::execute() const
{
    return execute(obs::ObsOptions{});
}

system::RunResult
RunRequest::execute(const obs::ObsOptions &obs_opts,
                    system::TaskMemo *memo) const
{
    if (benchmarks.empty())
        fatal("RunRequest: no benchmark named");
    system::SocSystem soc(config);
    soc.setObsOptions(obs_opts);
    if (memo)
        soc.setTaskMemo(memo, label());
    if (isMixed())
        return soc.runMixed(benchmarks);
    return soc.runBenchmark(benchmarks.front(), numTasks);
}

bool
RunRequest::operator==(const RunRequest &other) const
{
    // Value equality via the canonical field serialization: two
    // requests are the same experiment iff they hash identically and
    // name the same benchmarks (hash collisions across different
    // benchmark lists are caught here).
    return benchmarks == other.benchmarks &&
           numTasks == other.numTasks && hash() == other.hash();
}

TimedRun
runTimed(const RunRequest &request, const obs::ObsOptions &obs_opts,
         system::TaskMemo *memo, prof::RunProfile *profile)
{
    TimedRun run;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        std::optional<prof::ProfileSession> session;
        if (profile)
            session.emplace(*profile);
        run.result = request.execute(obs_opts, memo);
    } catch (const std::exception &e) {
        run.error = e.what();
    }
    run.wallMillis = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return run;
}

} // namespace capcheck::harness
