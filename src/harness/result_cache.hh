/**
 * @file
 * The result cache SweepRunner and capcheckd share, keyed by
 * RunRequest content hash: an in-memory map in front of the optional
 * disk cache. Overlapping sweeps (fig8/fig9/fig10 all re-run
 * ccpu+accel points) share one simulation per unique request instead
 * of recomputing it. Both levels keep entry-count/byte accounting and
 * hit/lookup counters, surfaced through stats() into sweep manifests
 * and the capcheckd stats frame.
 */

#ifndef CAPCHECK_HARNESS_RESULT_CACHE_HH
#define CAPCHECK_HARNESS_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "harness/disk_cache.hh"
#include "harness/sweep_options.hh"
#include "system/run_result.hh"

namespace capcheck::harness
{

/**
 * Memory first, then the disk cache when one is attached, whose hits
 * are promoted into memory. Thread-safe.
 */
class CacheTier
{
  public:
    /** Attach a disk cache under @p dir (LRU cap @p max_bytes, 0 =
     *  unbounded) unless @p dir is empty. */
    CacheTier(const std::string &dir, std::uint64_t max_bytes);

    struct Hit
    {
        system::RunResult result;
        bool fromDisk = false;
    };

    /** @return the cached result for @p hash from either level. */
    std::optional<Hit> lookup(std::uint64_t hash);

    /** Store @p result under @p hash in both levels (first writer
     *  wins in memory). */
    void store(std::uint64_t hash, const system::RunResult &result);

    TierStats stats() const;

  private:
    void storeInMemory(std::uint64_t hash,
                       const system::RunResult &result);

    mutable std::mutex mtx; ///< guards the memory level
    std::map<std::uint64_t, system::RunResult> entries;
    /** The memory level's counters; entries is entries.size(). */
    CacheStats memory;
    std::unique_ptr<DiskResultCache> disk;
};

} // namespace capcheck::harness

#endif // CAPCHECK_HARNESS_RESULT_CACHE_HH
