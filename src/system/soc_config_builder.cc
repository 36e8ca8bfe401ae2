#include "system/soc_config_builder.hh"

#include <stdexcept>

#include "base/logging.hh"

namespace capcheck::system
{

namespace
{

/** The low megabyte is reserved for the "OS" (soc_system.cc). */
constexpr std::uint64_t minMemBytes = 2ull << 20;

std::string
fmtU64(std::uint64_t v)
{
    return std::to_string(v);
}

} // namespace

std::vector<std::string>
validateSocConfig(const SocConfig &cfg)
{
    std::vector<std::string> errors;
    const bool checker = modeUsesCapChecker(cfg.mode);
    const char *mode_name = systemModeName(cfg.mode);

    if (cfg.numInstances == 0) {
        errors.push_back(
            "numInstances is 0: each functional-unit pool needs at "
            "least one accelerator instance (the paper uses 8)");
    }

    if (checker && cfg.capTableEntries == 0) {
        errors.push_back(
            "capTableEntries is 0 on a CapChecker mode: the checker "
            "cannot hold any capabilities; use 256 for the paper's "
            "prototype or >= buffers-per-task for a minimal system");
    }

    if (cfg.capCacheEntries > 0 &&
        cfg.capCacheEntries > cfg.capTableEntries) {
        errors.push_back(
            "capCacheEntries (" + fmtU64(cfg.capCacheEntries) +
            ") exceeds capTableEntries (" +
            fmtU64(cfg.capTableEntries) +
            "): a cache larger than the in-memory table it fronts is "
            "meaningless; lower capCacheEntries or raise "
            "capTableEntries");
    }

    if (!checker) {
        // CapChecker knobs silently doing nothing on a checker-less
        // mode is exactly the kind of sweep bug validate() exists to
        // catch (defaults are accepted so plain mode switches work).
        if (cfg.perAccelCheckers) {
            errors.push_back(
                std::string("perAccelCheckers is set but mode '") +
                mode_name +
                "' instantiates no CapChecker; use "
                "SystemMode::ccpuCaccel or drop the option");
        }
        if (cfg.capCacheEntries != 0) {
            errors.push_back(
                "capCacheEntries (" + fmtU64(cfg.capCacheEntries) +
                ") is set but mode '" + mode_name +
                "' instantiates no CapChecker; use "
                "SystemMode::ccpuCaccel or drop the option");
        }
        if (cfg.checkCycles != 1) {
            errors.push_back(
                "checkCycles (" + fmtU64(cfg.checkCycles) +
                ") differs from the default but mode '" + mode_name +
                "' instantiates no CapChecker, so the check pipeline "
                "it configures does not exist");
        }
        if (cfg.provenance != capchecker::Provenance::fine) {
            errors.push_back(
                std::string("provenance '") +
                capchecker::provenanceName(cfg.provenance) +
                "' differs from the default but mode '" + mode_name +
                "' instantiates no CapChecker, so the addressing "
                "scheme it selects never takes effect");
        }
    }

    if (checker && cfg.capCacheEntries == 0 &&
        cfg.capCacheWalkCycles != 60) {
        errors.push_back(
            "capCacheWalkCycles (" + fmtU64(cfg.capCacheWalkCycles) +
            ") differs from the default but capCacheEntries is 0 "
            "(whole table in SRAM), so no walk ever happens; enable "
            "the cache with capCache(entries, walk_cycles)");
    }

    if (!cfg.topologyFile.empty() && !modeUsesAccel(cfg.mode)) {
        errors.push_back(
            std::string("topologyFile '") + cfg.topologyFile +
            "' is set but mode '" + mode_name +
            "' runs on the CPU alone and elaborates no accelerator "
            "platform; use an accelerator mode or drop the file");
    }

    if (cfg.memBytes < minMemBytes) {
        errors.push_back(
            "memBytes (" + fmtU64(cfg.memBytes) +
            ") is below the " + fmtU64(minMemBytes) +
            "-byte minimum: the low 1 MiB is reserved for the OS and "
            "the heap needs room for benchmark buffers");
    }

    if (cfg.xbarMaxBurst == 0) {
        errors.push_back(
            "xbarMaxBurst is 0: the interconnect must grant at least "
            "one beat per arbitration (the prototype uses 1)");
    }

    if (cfg.memLatency == 0) {
        errors.push_back(
            "memLatency is 0: the memory controller pipeline needs at "
            "least one cycle of latency");
    }

    return errors;
}

std::string
validationErrors(const SocConfig &cfg)
{
    std::string joined;
    for (const std::string &e : validateSocConfig(cfg)) {
        if (!joined.empty())
            joined += "; ";
        joined += e;
    }
    return joined;
}

SocConfigBuilder &
SocConfigBuilder::mode(SystemMode m)
{
    cfg.mode = m;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::provenance(capchecker::Provenance p)
{
    cfg.provenance = p;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::numInstances(unsigned n)
{
    cfg.numInstances = n;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::capTableEntries(unsigned n)
{
    cfg.capTableEntries = n;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::checkCycles(Cycles c)
{
    cfg.checkCycles = c;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::perAccelCheckers(bool on)
{
    cfg.perAccelCheckers = on;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::capCache(unsigned entries, Cycles walk_cycles)
{
    cfg.capCacheEntries = entries;
    cfg.capCacheWalkCycles = walk_cycles;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::memLatency(Cycles c)
{
    cfg.memLatency = c;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::memBytes(std::uint64_t bytes)
{
    cfg.memBytes = bytes;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::xbarMaxBurst(unsigned beats)
{
    cfg.xbarMaxBurst = beats;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::guardBytes(std::uint64_t bytes)
{
    cfg.guardBytes = bytes;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::collectStats(bool on)
{
    cfg.collectStats = on;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::cpuCosts(const CpuCostParams &costs)
{
    cfg.cpuCosts = costs;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::driverCosts(const driver::DriverCostParams &costs)
{
    cfg.driverCosts = costs;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::seed(std::uint64_t s)
{
    cfg.seed = s;
    return *this;
}

SocConfigBuilder &
SocConfigBuilder::topologyFile(std::string path)
{
    cfg.topologyFile = std::move(path);
    return *this;
}

SocConfig
SocConfigBuilder::build() const
{
    const std::string errors = validationErrors(cfg);
    if (!errors.empty())
        throw std::invalid_argument("invalid SocConfig: " + errors);
    return cfg;
}

} // namespace capcheck::system
