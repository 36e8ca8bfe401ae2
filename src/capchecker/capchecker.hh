/**
 * @file
 * The CapChecker (the paper's primary contribution, Fig. 5): a
 * CHERI-aware hardware interposer between CHERI-unaware accelerators
 * and the memory controller. It holds CPU-installed capabilities in a
 * capability table, identifies which object each DMA request refers to
 * — from hardware port metadata (*Fine*) or from the top bits of a
 * 56-bit address space (*Coarse*) — and permits only accesses the
 * matching capability authorizes. Writes that pass are still
 * tag-clearing, so an accelerator can never mint a valid capability.
 */

#ifndef CAPCHECK_CAPCHECKER_CAPCHECKER_HH
#define CAPCHECK_CAPCHECKER_CAPCHECKER_HH

#include <string>
#include <vector>

#include <memory>

#include "base/probe.hh"
#include "capchecker/cap_cache.hh"
#include "capchecker/cap_table.hh"
#include "protect/checker.hh"

namespace capcheck::capchecker
{

/** How object provenance reaches the checker (Section 5.2.2/5.2.3). */
enum class Provenance
{
    /** Object ID carried as trusted hardware interface metadata. */
    fine,
    /** Object ID recovered from the top 8 bits of a 56-bit address. */
    coarse,
};

const char *provenanceName(Provenance mode);

/** Inverse of provenanceName(); false when @p name matches neither. */
bool provenanceFromName(const std::string &name, Provenance &out);

/** A recorded violation, for software tracing and the audit log. */
struct ExceptionRecord
{
    TaskId task = invalidTaskId;
    ObjectId object = invalidObjectId;
    Addr addr = 0;
    MemCmd cmd = MemCmd::read;
    std::string reason;
    /** @{ Bounds/permissions of the matched capability; capValid is
     *  false when no entry existed for (task, object). */
    bool capValid = false;
    Addr capBase = 0;
    std::uint64_t capLength = 0;
    std::uint32_t capPerms = 0;
    /** @} */
};

/** Payload of the check-result probe. */
struct CheckResultEvent
{
    const MemRequest *req;
    bool allowed;
    /** Table-walk cycles this check added (cap-cache miss). */
    Cycles extraLatency;
};

/** Payload of the capability-cache hit/miss probes. */
struct CapCacheEvent
{
    TaskId task;
    ObjectId object;
};

/** Payload of the eviction probe (driver revokes a task). */
struct CapEvictEvent
{
    TaskId task;
    unsigned entriesFreed;
};

class CapChecker : public protect::ProtectionChecker
{
  public:
    /** Address bits available for data in Coarse mode (Fig. 5). */
    static constexpr unsigned coarseAddrBits = 56;

    struct Params
    {
        unsigned tableEntries = 256;
        Provenance provenance = Provenance::fine;
        /** Pipelined check latency added per request. */
        Cycles checkCycles = 1;
        /** Driver-side cost of installing one capability over MMIO. */
        Cycles installCycles = 20;
        /** Driver-side cost of evicting one capability. */
        Cycles evictCycles = 4;
        /**
         * Capability-cache size; 0 means the whole table is on-chip
         * SRAM (the paper's prototype). Non-zero models the smaller
         * cached CapChecker of Section 5.2.3: hits are free, misses
         * walk the in-memory table.
         */
        unsigned cacheEntries = 0;
        /** Table-walk latency on a capability-cache miss. */
        Cycles cacheWalkCycles = 60;
    };

    CapChecker();
    explicit CapChecker(const Params &params);

    /** @{ Driver-facing API (reached through the capability MMIO). */
    std::optional<unsigned> installCapability(TaskId task, ObjectId obj,
                                              const cheri::Capability &cap);
    unsigned evictTask(TaskId task);
    /** @} */

    /**
     * Compose the address an accelerator must be programmed with for
     * buffer @p obj at physical @p base. Fine mode passes addresses
     * through; Coarse mode folds the object ID into the top bits.
     */
    Addr accelAddress(ObjectId obj, Addr base) const;

    protect::CheckResult check(const MemRequest &req) override;

    bool clearsTagsOnWrite() const override { return true; }
    Cycles checkLatency() const override { return params.checkCycles; }
    Cycles lastExtraLatency() const override { return lastWalk; }
    std::size_t entriesUsed() const override { return table.used(); }

    /** The capability cache, when configured (nullptr otherwise). */
    const CapCache *capCache() const { return cache.get(); }

    Cycles installCycles() const { return params.installCycles; }
    Cycles evictCycles() const { return params.evictCycles; }
    Provenance provenance() const { return params.provenance; }
    const CapTable &capTable() const { return table; }

    /** The global flag the CPU polls (Section 5.2.2). */
    bool exceptionFlagSet() const { return exceptionFlag; }
    void clearExceptionFlag() { exceptionFlag = false; }
    const std::vector<ExceptionRecord> &exceptionLog() const
    {
        return exceptions;
    }

    std::uint64_t checksPerformed() const { return _checks; }
    std::uint64_t checksDenied() const { return _denied; }

    /** @{ Probe points (near-zero cost with no listener attached). */
    probe::ProbePoint<CheckResultEvent> &checkResultProbe()
    {
        return _checkResultProbe;
    }
    probe::ProbePoint<ExceptionRecord> &exceptionProbe()
    {
        return _exceptionProbe;
    }
    probe::ProbePoint<CapCacheEvent> &cacheHitProbe()
    {
        return _cacheHitProbe;
    }
    probe::ProbePoint<CapCacheEvent> &cacheMissProbe()
    {
        return _cacheMissProbe;
    }
    probe::ProbePoint<CapEvictEvent> &evictProbe()
    {
        return _evictProbe;
    }
    /** @} */

    protect::SchemeProperties properties() const override;

    std::string name() const override;

  private:
    protect::CheckResult deny(const MemRequest &req, TaskId task,
                              ObjectId obj, Addr addr, std::string why,
                              const CapTable::Entry *entry = nullptr);

    Params params;
    CapTable table;
    std::unique_ptr<CapCache> cache;
    Cycles lastWalk = 0;
    bool exceptionFlag = false;
    std::vector<ExceptionRecord> exceptions;
    std::uint64_t _checks = 0;
    std::uint64_t _denied = 0;

    probe::ProbePoint<CheckResultEvent> _checkResultProbe{
        "capchecker.checkResult"};
    probe::ProbePoint<ExceptionRecord> _exceptionProbe{
        "capchecker.exception"};
    probe::ProbePoint<CapCacheEvent> _cacheHitProbe{
        "capchecker.cacheHit"};
    probe::ProbePoint<CapCacheEvent> _cacheMissProbe{
        "capchecker.cacheMiss"};
    probe::ProbePoint<CapEvictEvent> _evictProbe{"capchecker.evict"};
};

} // namespace capcheck::capchecker

#endif // CAPCHECK_CAPCHECKER_CAPCHECKER_HH
