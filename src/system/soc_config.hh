/**
 * @file
 * System configurations matching the paper's five evaluation points
 * (Section 6.3): cpu, ccpu, cpu+accel, ccpu+accel, ccpu+caccel.
 */

#ifndef CAPCHECK_SYSTEM_SOC_CONFIG_HH
#define CAPCHECK_SYSTEM_SOC_CONFIG_HH

#include <cstdint>
#include <string>

#include "capchecker/capchecker.hh"
#include "cpu/cpu_model.hh"
#include "driver/driver.hh"

namespace capcheck::system
{

/** The five system configurations of the overhead analysis. */
enum class SystemMode
{
    cpu,        ///< plain RISC-V CPU only
    ccpu,       ///< CHERI CPU only
    cpuAccel,   ///< plain CPU + unprotected accelerators
    ccpuAccel,  ///< CHERI CPU + unprotected accelerators
    ccpuCaccel, ///< CHERI CPU + CapChecker-protected accelerators
};

const char *systemModeName(SystemMode mode);

/** Inverse of systemModeName(); false when @p name matches no mode. */
bool systemModeFromName(const std::string &name, SystemMode &out);

bool modeUsesAccel(SystemMode mode);
bool modeUsesCheriCpu(SystemMode mode);
bool modeUsesCapChecker(SystemMode mode);

struct SocConfig
{
    SystemMode mode = SystemMode::ccpuCaccel;
    capchecker::Provenance provenance = capchecker::Provenance::fine;

    /** Accelerator instances per functional-unit pool (paper: 8). */
    unsigned numInstances = 8;
    /** CapChecker capability-table entries (paper: 256). */
    unsigned capTableEntries = 256;
    /** Check pipeline depth. */
    Cycles checkCycles = 1;
    /**
     * One exclusive CapChecker per accelerator master instead of a
     * single shared one (the Section 5.2.1 design alternative: more
     * area, no bandwidth gain on a single-beat interconnect).
     */
    bool perAccelCheckers = false;
    /** Capability-cache entries (0 = whole table in SRAM). */
    unsigned capCacheEntries = 0;
    /** Table-walk cycles on a capability-cache miss. */
    Cycles capCacheWalkCycles = 60;

    /** Memory controller latency. */
    Cycles memLatency = 30;
    /** Shared memory size. */
    std::uint64_t memBytes = 64ull << 20;
    /** Interconnect burst length (sticky arbitration beats). */
    unsigned xbarMaxBurst = 1;
    /** Guard bytes the driver pads after every buffer (Section 5.2.3's
     *  guard-region safeguard; 0 = none). */
    std::uint64_t guardBytes = 0;
    /** Collect and return the platform statistics dump. */
    bool collectStats = false;

    /**
     * Topology description file for accelerator runs; empty = the
     * canonical builtin for @c mode. A loaded topology shapes only the
     * platform graph (channels, routers, checkers, crossbars) — mode
     * and provenance still come from this config, and topology
     * "protect" nodes default to scheme "auto", which resolves from
     * the mode.
     */
    std::string topologyFile;

    CpuCostParams cpuCosts;
    driver::DriverCostParams driverCosts;

    /** Workload-generation seed. */
    std::uint64_t seed = 1;
};

} // namespace capcheck::system

#endif // CAPCHECK_SYSTEM_SOC_CONFIG_HH
