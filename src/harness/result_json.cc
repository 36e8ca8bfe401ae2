#include "harness/result_json.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace capcheck::harness
{

void
writeConfigJson(json::JsonWriter &w, const system::SocConfig &cfg)
{
    w.beginObject();
    w.key("mode").value(system::systemModeName(cfg.mode));
    w.key("provenance").value(
        capchecker::provenanceName(cfg.provenance));
    w.key("numInstances").value(cfg.numInstances);
    w.key("capTableEntries").value(cfg.capTableEntries);
    w.key("checkCycles").value(std::uint64_t{cfg.checkCycles});
    w.key("perAccelCheckers").value(cfg.perAccelCheckers);
    w.key("capCacheEntries").value(cfg.capCacheEntries);
    w.key("capCacheWalkCycles")
        .value(std::uint64_t{cfg.capCacheWalkCycles});
    w.key("memLatency").value(std::uint64_t{cfg.memLatency});
    w.key("memBytes").value(std::uint64_t{cfg.memBytes});
    w.key("xbarMaxBurst").value(cfg.xbarMaxBurst);
    w.key("guardBytes").value(std::uint64_t{cfg.guardBytes});
    w.key("collectStats").value(cfg.collectStats);
    w.key("seed").value(std::uint64_t{cfg.seed});
    if (!cfg.topologyFile.empty())
        w.key("topologyFile").value(cfg.topologyFile);
    w.endObject();
}

namespace
{

void
writeResultFields(json::JsonWriter &w, const system::RunResult &r)
{
    w.key("benchmark").value(r.benchmark);
    w.key("mode").value(system::systemModeName(r.mode));
    w.key("numTasks").value(r.numTasks);
    w.key("totalCycles").value(std::uint64_t{r.totalCycles});
    w.key("driverAllocCycles")
        .value(std::uint64_t{r.driverAllocCycles});
    w.key("kernelCycles").value(std::uint64_t{r.kernelCycles});
    w.key("driverDeallocCycles")
        .value(std::uint64_t{r.driverDeallocCycles});
    w.key("initCycles").value(std::uint64_t{r.initCycles});
    w.key("functionallyCorrect").value(r.functionallyCorrect);
    w.key("exceptions").value(r.exceptions);
    w.key("dmaBeats").value(std::uint64_t{r.dmaBeats});
    w.key("peakTableEntries")
        .value(std::uint64_t{r.peakTableEntries});
    if (!r.statsJson.empty())
        w.key("stats").rawValue(r.statsJson);
}

} // namespace

void
writeRunJson(json::JsonWriter &w, const RunRequest &request,
             const system::RunResult &result)
{
    w.beginObject();
    w.key("requestHash").value(request.hashHex());
    w.key("benchmarks").beginArray();
    for (const std::string &b : request.benchmarks)
        w.value(b);
    w.endArray();
    w.key("numTasks").value(request.numTasks);
    w.key("config");
    writeConfigJson(w, request.config);
    w.key("result").beginObject();
    writeResultFields(w, result);
    w.endObject();
    w.endObject();
}

std::string
runJson(const RunRequest &request, const system::RunResult &result)
{
    std::ostringstream os;
    json::JsonWriter w(os);
    writeRunJson(w, request, result);
    os << '\n';
    return os.str();
}

namespace
{

/** Emit the cost tables writeConfigJson() leaves implicit. */
void
writeCostsJson(json::JsonWriter &w, const system::SocConfig &cfg)
{
    const CpuCostParams &cpu = cfg.cpuCosts;
    w.key("cpuCosts").beginObject();
    w.key("intOp").value(std::uint64_t{cpu.intOp});
    w.key("fpOp").value(std::uint64_t{cpu.fpOp});
    w.key("loadHit").value(std::uint64_t{cpu.loadHit});
    w.key("storeHit").value(std::uint64_t{cpu.storeHit});
    w.key("missPenalty").value(std::uint64_t{cpu.missPenalty});
    w.key("copyPerWord").value(std::uint64_t{cpu.copyPerWord});
    w.key("cheriTagMissInterval").value(cpu.cheriTagMissInterval);
    w.key("cheriCapSetup").value(std::uint64_t{cpu.cheriCapSetup});
    w.endObject();

    const driver::DriverCostParams &drv = cfg.driverCosts;
    w.key("driverCosts").beginObject();
    w.key("mallocCall").value(std::uint64_t{drv.mallocCall});
    w.key("freeCall").value(std::uint64_t{drv.freeCall});
    w.key("controlRegWrite").value(std::uint64_t{drv.controlRegWrite});
    w.key("capDerive").value(std::uint64_t{drv.capDerive});
    w.key("pointerSetup").value(std::uint64_t{drv.pointerSetup});
    w.key("iommuMapPerPage").value(std::uint64_t{drv.iommuMapPerPage});
    w.key("iommuUnmapPerPage")
        .value(std::uint64_t{drv.iommuUnmapPerPage});
    w.key("iopmpRegionSetup")
        .value(std::uint64_t{drv.iopmpRegionSetup});
    w.key("scrubPerWord").value(std::uint64_t{drv.scrubPerWord});
    w.endObject();
}

/**
 * Typed field extraction for the parse direction. Each reader records
 * the first missing/ill-typed key into *err and returns a default, so
 * callers can fail once at the end with a precise message.
 */
struct FieldReader
{
    const json::JsonValue &v;
    std::string *err;

    void
    fail(const std::string &key, const char *want) const
    {
        if (err && err->empty())
            *err = "field '" + key + "': expected " + want;
    }

    std::uint64_t
    u64(const std::string &key)
    {
        const json::JsonValue *f = v.get(key);
        if (!f || !f->isNumber()) {
            fail(key, "number");
            return 0;
        }
        return static_cast<std::uint64_t>(f->asNumber());
    }

    unsigned u32(const std::string &key)
    {
        return static_cast<unsigned>(u64(key));
    }

    bool
    boolean(const std::string &key)
    {
        const json::JsonValue *f = v.get(key);
        if (!f || !f->isBool()) {
            fail(key, "bool");
            return false;
        }
        return f->asBool();
    }

    std::string
    str(const std::string &key)
    {
        const json::JsonValue *f = v.get(key);
        if (!f || !f->isString()) {
            fail(key, "string");
            return {};
        }
        return f->asString();
    }

    /** Optional string: absent key reads as "". */
    std::string
    optStr(const std::string &key)
    {
        const json::JsonValue *f = v.get(key);
        if (!f)
            return {};
        if (!f->isString()) {
            fail(key, "string");
            return {};
        }
        return f->asString();
    }
};

} // namespace

void
writeRequestWireJson(json::JsonWriter &w, const RunRequest &request)
{
    w.beginObject();
    w.key("hash").value(request.hashHex());
    w.key("benchmarks").beginArray();
    for (const std::string &b : request.benchmarks)
        w.value(b);
    w.endArray();
    w.key("numTasks").value(request.numTasks);
    w.key("config").beginObject();
    const system::SocConfig &cfg = request.config;
    w.key("mode").value(system::systemModeName(cfg.mode));
    w.key("provenance").value(
        capchecker::provenanceName(cfg.provenance));
    w.key("numInstances").value(cfg.numInstances);
    w.key("capTableEntries").value(cfg.capTableEntries);
    w.key("checkCycles").value(std::uint64_t{cfg.checkCycles});
    w.key("perAccelCheckers").value(cfg.perAccelCheckers);
    w.key("capCacheEntries").value(cfg.capCacheEntries);
    w.key("capCacheWalkCycles")
        .value(std::uint64_t{cfg.capCacheWalkCycles});
    w.key("memLatency").value(std::uint64_t{cfg.memLatency});
    w.key("memBytes").value(std::uint64_t{cfg.memBytes});
    w.key("xbarMaxBurst").value(cfg.xbarMaxBurst);
    w.key("guardBytes").value(std::uint64_t{cfg.guardBytes});
    w.key("collectStats").value(cfg.collectStats);
    w.key("seed").value(std::uint64_t{cfg.seed});
    if (!cfg.topologyFile.empty())
        w.key("topologyFile").value(cfg.topologyFile);
    writeCostsJson(w, cfg);
    w.endObject();
    w.endObject();
}

std::optional<RunRequest>
requestFromWireJson(const json::JsonValue &v, std::string *error)
{
    std::string err;
    if (!v.isObject()) {
        err = "request: expected object";
    }
    RunRequest req;
    if (err.empty()) {
        const json::JsonValue *benchmarks = v.get("benchmarks");
        if (!benchmarks || !benchmarks->isArray() ||
            benchmarks->elements().empty()) {
            err = "field 'benchmarks': expected non-empty array";
        } else {
            for (const json::JsonValue &b : benchmarks->elements()) {
                if (!b.isString()) {
                    err = "field 'benchmarks': expected strings";
                    break;
                }
                req.benchmarks.push_back(b.asString());
            }
        }
    }
    const json::JsonValue *cfg =
        err.empty() ? v.get("config") : nullptr;
    if (err.empty() && (!cfg || !cfg->isObject()))
        err = "field 'config': expected object";
    if (err.empty()) {
        FieldReader top{v, &err};
        req.numTasks = top.u32("numTasks");

        FieldReader c{*cfg, &err};
        system::SocConfig &sc = req.config;
        if (!system::systemModeFromName(c.str("mode"), sc.mode))
            err = "field 'mode': unknown system mode";
        if (err.empty() &&
            !capchecker::provenanceFromName(c.str("provenance"),
                                            sc.provenance))
            err = "field 'provenance': unknown provenance";
        sc.numInstances = c.u32("numInstances");
        sc.capTableEntries = c.u32("capTableEntries");
        sc.checkCycles = c.u64("checkCycles");
        sc.perAccelCheckers = c.boolean("perAccelCheckers");
        sc.capCacheEntries = c.u32("capCacheEntries");
        sc.capCacheWalkCycles = c.u64("capCacheWalkCycles");
        sc.memLatency = c.u64("memLatency");
        sc.memBytes = c.u64("memBytes");
        sc.xbarMaxBurst = c.u32("xbarMaxBurst");
        sc.guardBytes = c.u64("guardBytes");
        sc.collectStats = c.boolean("collectStats");
        sc.seed = c.u64("seed");
        sc.topologyFile = c.optStr("topologyFile");

        const json::JsonValue *cpu = cfg->get("cpuCosts");
        if (!cpu || !cpu->isObject()) {
            if (err.empty())
                err = "field 'cpuCosts': expected object";
        } else {
            FieldReader r{*cpu, &err};
            CpuCostParams &p = sc.cpuCosts;
            p.intOp = r.u64("intOp");
            p.fpOp = r.u64("fpOp");
            p.loadHit = r.u64("loadHit");
            p.storeHit = r.u64("storeHit");
            p.missPenalty = r.u64("missPenalty");
            p.copyPerWord = r.u64("copyPerWord");
            p.cheriTagMissInterval = r.u32("cheriTagMissInterval");
            p.cheriCapSetup = r.u64("cheriCapSetup");
        }
        const json::JsonValue *drv = cfg->get("driverCosts");
        if (!drv || !drv->isObject()) {
            if (err.empty())
                err = "field 'driverCosts': expected object";
        } else {
            FieldReader r{*drv, &err};
            driver::DriverCostParams &p = sc.driverCosts;
            p.mallocCall = r.u64("mallocCall");
            p.freeCall = r.u64("freeCall");
            p.controlRegWrite = r.u64("controlRegWrite");
            p.capDerive = r.u64("capDerive");
            p.pointerSetup = r.u64("pointerSetup");
            p.iommuMapPerPage = r.u64("iommuMapPerPage");
            p.iommuUnmapPerPage = r.u64("iommuUnmapPerPage");
            p.iopmpRegionSetup = r.u64("iopmpRegionSetup");
            p.scrubPerWord = r.u64("scrubPerWord");
        }
    }
    if (!err.empty()) {
        if (error)
            *error = err;
        return std::nullopt;
    }
    return req;
}

void
writeResultWireJson(json::JsonWriter &w,
                    const system::RunResult &result)
{
    w.beginObject();
    w.key("benchmark").value(result.benchmark);
    w.key("mode").value(system::systemModeName(result.mode));
    w.key("numTasks").value(result.numTasks);
    w.key("totalCycles").value(std::uint64_t{result.totalCycles});
    w.key("driverAllocCycles")
        .value(std::uint64_t{result.driverAllocCycles});
    w.key("kernelCycles").value(std::uint64_t{result.kernelCycles});
    w.key("driverDeallocCycles")
        .value(std::uint64_t{result.driverDeallocCycles});
    w.key("initCycles").value(std::uint64_t{result.initCycles});
    w.key("functionallyCorrect").value(result.functionallyCorrect);
    w.key("exceptions").value(result.exceptions);
    w.key("dmaBeats").value(std::uint64_t{result.dmaBeats});
    w.key("peakTableEntries")
        .value(std::uint64_t{result.peakTableEntries});
    // As *strings* (escaped), not spliced raw: the stats dumps must
    // survive the round trip byte-for-byte, and re-parsing spliced
    // JSON would re-format numbers.
    w.key("statsText").value(result.statsText);
    w.key("statsJson").value(result.statsJson);
    w.endObject();
}

std::optional<system::RunResult>
resultFromWireJson(const json::JsonValue &v, std::string *error)
{
    std::string err;
    if (!v.isObject())
        err = "result: expected object";
    system::RunResult r;
    if (err.empty()) {
        FieldReader f{v, &err};
        r.benchmark = f.str("benchmark");
        if (!system::systemModeFromName(f.str("mode"), r.mode))
            err = "field 'mode': unknown system mode";
        r.numTasks = f.u32("numTasks");
        r.totalCycles = f.u64("totalCycles");
        r.driverAllocCycles = f.u64("driverAllocCycles");
        r.kernelCycles = f.u64("kernelCycles");
        r.driverDeallocCycles = f.u64("driverDeallocCycles");
        r.initCycles = f.u64("initCycles");
        r.functionallyCorrect = f.boolean("functionallyCorrect");
        r.exceptions = f.u32("exceptions");
        r.dmaBeats = f.u64("dmaBeats");
        r.peakTableEntries = f.u64("peakTableEntries");
        r.statsText = f.str("statsText");
        r.statsJson = f.str("statsJson");
    }
    if (!err.empty()) {
        if (error)
            *error = err;
        return std::nullopt;
    }
    return r;
}

double
SweepProfile::utilization() const
{
    if (workers == 0 || sweepWallMillis <= 0)
        return 0;
    return simWallMillis / (sweepWallMillis * workers);
}

void
writeCacheStatsJson(json::JsonWriter &w, const CacheStats &c)
{
    w.beginObject();
    w.key("entries").value(c.entries);
    w.key("bytes").value(c.bytes);
    w.key("hits").value(c.hits);
    w.key("lookups").value(c.lookups);
    w.key("evictions").value(c.evictions);
    w.endObject();
}

void
SweepProfile::tally(const std::vector<RunOutcome> &outcomes)
{
    std::vector<double> walls;
    for (const RunOutcome &o : outcomes) {
        if (!o.cacheHit)
            walls.push_back(o.wallMillis);
    }
    executed = walls.size();
    cacheHits = outcomes.size() - walls.size();
    simWallMillis = std::accumulate(walls.begin(), walls.end(), 0.0);
    // Per-run wall-clock spread: a grid with one pathological point
    // looks healthy as a sum; min/p50/max makes the skew visible.
    if (!walls.empty()) {
        std::sort(walls.begin(), walls.end());
        runWallMinMillis = walls.front();
        runWallP50Millis = walls[walls.size() / 2];
        runWallMaxMillis = walls.back();
    }
}

std::string
manifestJson(const std::string &sweep_name,
             const std::vector<RunOutcome> &outcomes,
             const SweepProfile *profile)
{
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("sweep").value(sweep_name);
    w.key("runs").value(std::uint64_t{outcomes.size()});
    w.key("entries").beginArray();
    for (const RunOutcome &o : outcomes) {
        w.beginObject();
        w.key("requestHash").value(o.request.hashHex());
        w.key("label").value(o.request.label());
        w.key("cacheHit").value(o.cacheHit);
        w.key("totalCycles")
            .value(std::uint64_t{o.result.totalCycles});
        w.key("functionallyCorrect")
            .value(o.result.functionallyCorrect);
        w.key("exceptions").value(o.result.exceptions);
        if (profile)
            w.key("wallMillis").value(o.wallMillis);
        w.endObject();
    }
    w.endArray();
    if (profile) {
        w.key("profile").beginObject();
        w.key("workers").value(profile->workers);
        w.key("executed").value(std::uint64_t{profile->executed});
        w.key("cacheHits").value(std::uint64_t{profile->cacheHits});
        w.key("tasksPrepared").value(profile->tasksPrepared);
        w.key("tasksReused").value(profile->tasksReused);
        w.key("simWallMillis").value(profile->simWallMillis);
        w.key("sweepWallMillis").value(profile->sweepWallMillis);
        w.key("runWall").beginObject();
        w.key("minMillis").value(profile->runWallMinMillis);
        w.key("p50Millis").value(profile->runWallP50Millis);
        w.key("maxMillis").value(profile->runWallMaxMillis);
        w.endObject();
        w.key("workerUtilization").value(profile->utilization());
        w.key("cache").beginObject();
        w.key("memory");
        writeCacheStatsJson(w, profile->cache.memory);
        if (profile->cache.diskPresent) {
            w.key("disk");
            writeCacheStatsJson(w, profile->cache.disk);
        }
        w.endObject();
        w.endObject();
    }
    w.endObject();
    os << '\n';
    return os.str();
}

} // namespace capcheck::harness
