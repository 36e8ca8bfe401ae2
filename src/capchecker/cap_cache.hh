/**
 * @file
 * Capability cache (Section 5.2.3): instead of holding every
 * capability in on-chip SRAM, a small CapChecker can cache entries of
 * a larger table that lives in (driver-owned) main memory — "similar
 * to page table caching in IOMMUs/IOTLBs, but with each entry holding
 * a capability". A miss costs a table walk; task eviction shoots the
 * task's cached entries down.
 *
 * Fully associative, LRU replacement, keyed by (task, object). Hits
 * resolve through a (task, object) hash and victims through an
 * intrusive LRU list plus a free-line set, making exactly the
 * hit/victim decisions of one scan over every line per access
 * (tests/fuzz/fast_index_fuzz_test.cc runs that scan in lockstep as
 * its reference model).
 */

#ifndef CAPCHECK_CAPCHECKER_CAP_CACHE_HH
#define CAPCHECK_CAPCHECKER_CAP_CACHE_HH

#include <cstdint>
#include <set>
#include <vector>

#include "base/types.hh"
#include "capchecker/pair_index.hh"

namespace capcheck::capchecker
{

class CapCache
{
  public:
    /**
     * @param entries cache capacity.
     * @param walk_cycles latency of fetching one capability from the
     *        in-memory table on a miss (two 64-bit reads + tag).
     */
    explicit CapCache(unsigned entries, Cycles walk_cycles = 60);

    unsigned capacity() const { return static_cast<unsigned>(lines.size()); }
    Cycles walkCycles() const { return _walkCycles; }

    /**
     * Look up (task, object).
     * @return 0 on a hit, the walk latency on a miss (the entry is
     *         filled as a side effect).
     */
    Cycles access(TaskId task, ObjectId object);

    /** Invalidate all lines of @p task (eviction shootdown). */
    void invalidateTask(TaskId task);

    /** Invalidate everything. */
    void flush();

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

  private:
    struct Line
    {
        bool valid = false;
        TaskId task = invalidTaskId;
        ObjectId object = invalidObjectId;
        std::uint64_t lastUse = 0;
    };

    /** No list neighbour / list empty. */
    static constexpr unsigned npos = ~0u;

    /** @{ Intrusive LRU list over line indices, least-recent first.
     *  Stamps strictly increase, so appending on every touch keeps the
     *  list sorted by lastUse. */
    void lruDetach(unsigned idx);
    void lruAppend(unsigned idx);
    /** @} */

    void fill(Line &line, TaskId task, ObjectId object);

    /** Deep check: LRU stamps unique, within the use clock, no
     *  duplicate (task, object) lines, and the index, free set and LRU
     *  list mirror the lines. Run under CAPCHECK_PARANOID. */
    void checkLruSanity() const;

    std::vector<Line> lines;
    Cycles _walkCycles;
    std::uint64_t useClock = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;

    /** @{ Lookup state mirroring the lines. */
    PairIndex index;
    /** Invalid line indices. A scan that lets every invalid line
     *  overwrite the victim candidate picks the *last* invalid line,
     *  so misses fill the largest free index. */
    std::set<unsigned> freeLines;
    std::vector<unsigned> lruPrev;
    std::vector<unsigned> lruNext;
    unsigned lruHead = npos;
    unsigned lruTail = npos;
    /** @} */
};

} // namespace capcheck::capchecker

#endif // CAPCHECK_CAPCHECKER_CAP_CACHE_HH
