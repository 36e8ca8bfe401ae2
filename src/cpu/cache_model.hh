/**
 * @file
 * Set-associative L1 data cache model for the scalar CPU (the
 * CHERI-Flute softcore class of machine). Functional data stays in
 * TaggedMemory; this model only tracks hit/miss behaviour for the cost
 * model. LRU replacement within a set.
 */

#ifndef CAPCHECK_CPU_CACHE_MODEL_HH
#define CAPCHECK_CPU_CACHE_MODEL_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace capcheck
{

class CacheModel
{
  public:
    /**
     * @param size_bytes total capacity (power of two).
     * @param line_bytes line size (power of two).
     * @param ways associativity (>= 1).
     */
    CacheModel(std::uint64_t size_bytes = 16 * 1024,
               std::uint64_t line_bytes = 64, unsigned ways = 2);

    /**
     * Access the line containing @p addr.
     * @return true on hit; a miss fills the line (LRU victim).
     *
     * Inline: every simulated CPU load/store lands here, and the
     * cross-TU call cost rivalled the way scan itself. The set count
     * is a power of two, so the set index is a mask, not a divide.
     */
    bool
    access(Addr addr)
    {
        const std::uint64_t line = addr >> offsetBits;
        const std::uint64_t set = line & setMask;
        Way *const begin = &ways[set * numWays];
        ++useClock;

        Way *victim = begin;
        for (Way *way = begin; way != begin + numWays; ++way) {
            if (way->tag == line + 1) {
                way->lastUse = useClock;
                ++_hits;
                return true;
            }
            if (way->lastUse < victim->lastUse ||
                (way->tag == 0 && victim->tag != 0))
                victim = way;
        }

        victim->tag = line + 1;
        victim->lastUse = useClock;
        ++_misses;
        return false;
    }

    /** Invalidate everything (context/task switch). */
    void flush();

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t lineBytes() const { return lineSize; }
    unsigned associativity() const { return numWays; }

  private:
    struct Way
    {
        std::uint64_t tag = 0; ///< line number + 1 (0 = invalid)
        std::uint64_t lastUse = 0;
    };

    std::uint64_t lineSize;
    unsigned offsetBits;
    unsigned numWays;
    std::uint64_t setMask = 0; ///< set count - 1
    std::vector<Way> ways; ///< sets x ways, row-major
    std::uint64_t useClock = 0;

    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace capcheck

#endif // CAPCHECK_CPU_CACHE_MODEL_HH
