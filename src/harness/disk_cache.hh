/**
 * @file
 * Disk-backed content-addressed result cache: one version-stamped JSON
 * file per RunRequest hash under a cache directory. Entries are
 * written to a temporary name and published with an atomic rename, so
 * concurrent writers (an in-process sweep and a capcheckd daemon
 * sharing CAPCHECK_CACHE_DIR) can never expose a torn file, and a
 * restarted daemon re-indexes whatever the previous life left behind.
 *
 * Eviction is least-recently-used by total byte size: every hit bumps
 * the entry's recency (mirrored to the file's mtime so the order
 * survives restarts), and store() evicts the coldest entries until
 * the cache fits under its byte cap again.
 */

#ifndef CAPCHECK_HARNESS_DISK_CACHE_HH
#define CAPCHECK_HARNESS_DISK_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "harness/sweep_options.hh"
#include "system/run_result.hh"

namespace capcheck::harness
{

class DiskResultCache
{
  public:
    /** Bump when the entry document layout changes, or when a stored
     *  result would no longer match a fresh one (version 2: CPU-only
     *  runs of one kernel are labelled by it, not "mixed"); readers
     *  treat a mismatched stamp as a miss and overwrite on the next
     *  store. */
    static constexpr unsigned formatVersion = 2;

    /**
     * Open (and index) the cache under @p dir, creating it if needed.
     * @p max_bytes is the LRU byte cap; 0 = unbounded.
     */
    explicit DiskResultCache(std::string dir,
                             std::uint64_t max_bytes = 0);

    /** The cached result for @p hash, if a valid entry exists. */
    std::optional<system::RunResult> lookup(std::uint64_t hash);

    /** Persist @p result under @p hash, then enforce the byte cap. */
    void store(std::uint64_t hash, const system::RunResult &result);

    /** Occupancy plus lifetime hit/lookup/eviction counters. */
    CacheStats stats() const;

    /** The entry file for @p hash (inside the cache directory). */
    std::string pathFor(std::uint64_t hash) const;

  private:
    struct Entry
    {
        std::uint64_t bytes = 0;
        /** Monotonic recency stamp; smallest = coldest. */
        std::uint64_t stamp = 0;
    };

    void indexExisting();
    void evictLocked();

    std::string dir;
    std::uint64_t byteCap;

    mutable std::mutex mtx;
    std::map<std::uint64_t, Entry> index;
    std::uint64_t totalBytes = 0;
    std::uint64_t nextStamp = 1;
    std::uint64_t hitCount = 0;
    std::uint64_t lookupCount = 0;
    std::uint64_t evictCount = 0;
};

} // namespace capcheck::harness

#endif // CAPCHECK_HARNESS_DISK_CACHE_HH
