/**
 * @file
 * The CapChecker's capability table (Fig. 5): a fixed number of entries
 * (256 in the paper's prototype), each holding one compressed CHERI
 * capability indexed by (accelerator task, buffer object). Allocation
 * is associative; when the table is full the driver stalls until
 * another task's capabilities are evicted. Each entry carries an
 * exception bit so software can trace which pointer faulted.
 *
 * Lookups model a fully associative CAM. The simulator resolves them
 * through an open-addressed (task, object) hash over the entry array —
 * pure host-side bookkeeping that finds exactly the entry a scan of
 * every entry would (tests/fuzz/fast_index_fuzz_test.cc keeps the
 * scan as its reference model).
 */

#ifndef CAPCHECK_CAPCHECKER_CAP_TABLE_HH
#define CAPCHECK_CAPCHECKER_CAP_TABLE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "base/types.hh"
#include "capchecker/pair_index.hh"
#include "cheri/capability.hh"

namespace capcheck::capchecker
{

class CapTable
{
  public:
    struct Entry
    {
        bool valid = false;
        bool exception = false;
        TaskId task = invalidTaskId;
        ObjectId object = invalidObjectId;
        /** Stored compressed form (what the hardware holds). */
        std::uint64_t pesbt = 0;
        std::uint64_t cursor = 0;
        bool tag = false;
        /** Decoded view (the hardware decoder's output). */
        cheri::Capability decoded;
    };

    explicit CapTable(unsigned num_entries = 256);

    unsigned capacity() const { return static_cast<unsigned>(entries.size()); }
    std::size_t used() const { return liveCount; }
    bool full() const { return liveCount == entries.size(); }

    /**
     * Install a capability for (task, object).
     * Untagged capabilities are rejected (the control logic verifies
     * the tag, Section 5.3).
     * @return the entry index, or nullopt when the table is full.
     */
    std::optional<unsigned> install(TaskId task, ObjectId object,
                                    const cheri::Capability &cap);

    /** Associative lookup; nullptr when no entry matches. */
    const Entry *lookup(TaskId task, ObjectId object) const;

    /**
     * Mark the entry for (task, object) as having faulted. An entry
     * must exist: the checker records exceptions against the entry it
     * just matched, so a miss here means the driver and the CapChecker
     * disagree about what is installed.
     * @throw SimError (via INVARIANT) when no entry matches.
     */
    void markException(TaskId task, ObjectId object);

    /** Evict all entries of @p task. @return entries freed. */
    unsigned evictTask(TaskId task);

    /** Entry by index (diagnostics). */
    const Entry &at(unsigned idx) const { return entries.at(idx); }

    /** Indices of entries whose exception bit is set. */
    std::vector<unsigned> exceptionEntries() const;

  private:
    Entry *find(TaskId task, ObjectId object);

    /** Deep conservation check: liveCount equals the number of valid
     *  entries and the index mirrors them exactly. Run under
     *  CAPCHECK_PARANOID. */
    void checkConservation() const;

    std::vector<Entry> entries;
    std::size_t liveCount = 0;
    /** (task, object) -> entry index of every valid entry. */
    PairIndex index;
};

} // namespace capcheck::capchecker

#endif // CAPCHECK_CAPCHECKER_CAP_TABLE_HH
