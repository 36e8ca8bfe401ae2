/**
 * @file
 * Model-based fuzzers for the hash-indexed lookup structures of the
 * CapChecker (PairIndex, CapTable, CapCache). Their reference models
 * are the associative scans the hardware performs — kept here, beside
 * std::map / std::unordered_map models, as test oracles. Three
 * harnesses:
 *
 *  - PairIndex against a std::unordered_map, with a deliberately tiny
 *    key space so tombstone churn forces compaction rebuilds;
 *  - CapTable against a std::map model of its contents and a scanning
 *    table that predicts the exact entry index of every install and
 *    lookup;
 *  - CapCache run in lockstep with a scanning LRU cache on one
 *    operation stream — every access must return the same latency
 *    (i.e. make the identical hit/victim decision).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "capchecker/cap_cache.hh"
#include "capchecker/cap_table.hh"
#include "capchecker/pair_index.hh"
#include "cheri/capability.hh"
#include "fuzz_env.hh"

namespace capcheck::capchecker
{
namespace
{

constexpr TaskId numTasks = 5;
constexpr ObjectId numObjects = 8;

TEST(PairIndexFuzz, MatchesReferenceModel)
{
    Rng rng(fuzz::seed() ^ 0x1dec5);
    const std::uint64_t iters = fuzz::iterations();

    // Capacity equals the key space so the table can always accept an
    // insert, while erase/insert waves pile up tombstones and force
    // compact() to run many times over the fuzz budget.
    PairIndex index(numTasks * numObjects);
    std::unordered_map<std::uint64_t, std::uint32_t> model;
    const auto key = [](TaskId t, ObjectId o) {
        return (static_cast<std::uint64_t>(t) << 32) | o;
    };

    for (std::uint64_t i = 0; i < iters; ++i) {
        const TaskId task = static_cast<TaskId>(rng.nextBounded(numTasks));
        const ObjectId object =
            static_cast<ObjectId>(rng.nextBounded(numObjects));
        const std::uint64_t k = key(task, object);

        switch (rng.nextBounded(4)) {
          case 0:
          case 1: // insert (keys are unique by contract)
            if (model.count(k) == 0) {
                const auto value =
                    static_cast<std::uint32_t>(rng.nextBounded(1024));
                index.insert(task, object, value);
                model[k] = value;
            }
            break;
          case 2: // erase (the key must be present by contract)
            if (model.count(k) != 0) {
                index.erase(task, object);
                model.erase(k);
            }
            break;
          default:
            break; // fall through to the find cross-check
        }

        ASSERT_EQ(index.size(), model.size()) << "iteration " << i;
        const TaskId qt = static_cast<TaskId>(rng.nextBounded(numTasks));
        const ObjectId qo =
            static_cast<ObjectId>(rng.nextBounded(numObjects));
        const auto got = index.find(qt, qo);
        const auto ref = model.find(key(qt, qo));
        if (ref == model.end()) {
            ASSERT_FALSE(got.has_value())
                << "iteration " << i << ": phantom mapping for ("
                << qt << ", " << qo << ")";
        } else {
            ASSERT_TRUE(got.has_value())
                << "iteration " << i << ": lost mapping for (" << qt
                << ", " << qo << ")";
            ASSERT_EQ(*got, ref->second) << "iteration " << i;
        }
    }
}

TEST(PairIndexFuzz, ContractViolationsPanic)
{
    PairIndex index(4);
    index.insert(1, 2, 7);
    EXPECT_THROW(index.insert(1, 2, 9), SimError);
    EXPECT_THROW(index.erase(3, 4), SimError);
    index.erase(1, 2);
    EXPECT_EQ(index.size(), 0u);
}

constexpr unsigned tableSize = 16;

struct RefEntry
{
    cheri::Capability cap;
    bool exception = false;
};

using Key = std::pair<TaskId, ObjectId>;

cheri::Capability
randomCap(Rng &rng)
{
    const Addr base = fuzz::randomSized(rng);
    std::uint64_t len = fuzz::randomSized(rng);
    if (len == 0)
        len = 1;
    cheri::Capability cap = cheri::Capability::root().setBounds(base, len);
    if (!cap.tag())
        cap = cheri::Capability::root().setBounds(0, 4096);
    return cap;
}

/**
 * Reference CAM: which entry index a fully associative table scan
 * matches or allocates. A re-install overwrites the matching entry in
 * place; a new key takes the first invalid entry.
 */
class ScanTable
{
  public:
    explicit ScanTable(unsigned entries) : slots(entries) {}

    std::optional<unsigned>
    lookup(TaskId task, ObjectId object) const
    {
        for (unsigned i = 0; i < slots.size(); ++i) {
            if (slots[i].valid && slots[i].task == task &&
                slots[i].object == object)
                return i;
        }
        return std::nullopt;
    }

    std::optional<unsigned>
    install(TaskId task, ObjectId object)
    {
        if (const auto hit = lookup(task, object))
            return hit;
        for (unsigned i = 0; i < slots.size(); ++i) {
            if (!slots[i].valid) {
                slots[i] = Slot{true, task, object};
                return i;
            }
        }
        return std::nullopt;
    }

    void
    evictTask(TaskId task)
    {
        for (Slot &slot : slots) {
            if (slot.valid && slot.task == task)
                slot = Slot{};
        }
    }

  private:
    struct Slot
    {
        bool valid = false;
        TaskId task = invalidTaskId;
        ObjectId object = invalidObjectId;
    };
    std::vector<Slot> slots;
};

/**
 * The indexed table against a std::map model of its contents and the
 * scanning CAM's entry placement. Same workload shape as
 * CapTableFuzz.MatchesReferenceModel.
 */
TEST(CapTableFastIndexFuzz, MatchesReferenceModel)
{
    Rng rng(fuzz::seed() ^ 0xfa57cab1e);
    const std::uint64_t iters = fuzz::iterations();

    CapTable table(tableSize);
    std::map<Key, RefEntry> model;
    ScanTable scan(tableSize);

    for (std::uint64_t i = 0; i < iters; ++i) {
        const TaskId task = static_cast<TaskId>(rng.nextBounded(numTasks));
        const ObjectId object =
            static_cast<ObjectId>(rng.nextBounded(numObjects));
        const Key key{task, object};

        switch (rng.nextBounded(10)) {
          case 0:
          case 1:
          case 2:
          case 3: { // install
            const cheri::Capability cap = randomCap(rng);
            const auto idx = table.install(task, object, cap);
            ASSERT_EQ(idx, scan.install(task, object))
                << "iteration " << i << ": entry placement diverged";
            const bool have = model.count(key) != 0;
            if (!have && model.size() == tableSize) {
                ASSERT_FALSE(idx.has_value()) << "iteration " << i;
            } else {
                ASSERT_TRUE(idx.has_value()) << "iteration " << i;
                model[key] = RefEntry{cap, false};
            }
            break;
          }
          case 4:
          case 5: { // evict one task
            const unsigned freed = table.evictTask(task);
            scan.evictTask(task);
            unsigned expect = 0;
            for (auto it = model.begin(); it != model.end();) {
                if (it->first.first == task) {
                    it = model.erase(it);
                    ++expect;
                } else {
                    ++it;
                }
            }
            ASSERT_EQ(freed, expect) << "iteration " << i;
            break;
          }
          case 6: { // markException
            const auto it = model.find(key);
            if (it != model.end()) {
                table.markException(task, object);
                it->second.exception = true;
            } else {
                EXPECT_THROW(table.markException(task, object),
                             SimError)
                    << "iteration " << i;
            }
            break;
          }
          default:
            break;
        }

        ASSERT_EQ(table.used(), model.size()) << "iteration " << i;

        const TaskId qt = static_cast<TaskId>(rng.nextBounded(numTasks));
        const ObjectId qo =
            static_cast<ObjectId>(rng.nextBounded(numObjects));
        const CapTable::Entry *entry = table.lookup(qt, qo);
        const auto ref = model.find({qt, qo});
        const auto slot = scan.lookup(qt, qo);
        if (ref == model.end()) {
            ASSERT_EQ(entry, nullptr) << "iteration " << i;
            ASSERT_FALSE(slot.has_value()) << "iteration " << i;
        } else {
            ASSERT_NE(entry, nullptr) << "iteration " << i;
            ASSERT_TRUE(slot.has_value()) << "iteration " << i;
            ASSERT_EQ(entry, &table.at(*slot)) << "iteration " << i;
            ASSERT_TRUE(entry->valid);
            ASSERT_EQ(entry->task, qt);
            ASSERT_EQ(entry->object, qo);
            ASSERT_EQ(entry->exception, ref->second.exception)
                << "iteration " << i;
            ASSERT_EQ(entry->decoded.base(), ref->second.cap.base())
                << "iteration " << i;
        }
    }
}

/**
 * Reference capability cache: one scan over every line per access
 * computes the hit and the LRU victim (the last invalid line, else the
 * least recently used one).
 */
class ScanCache
{
  public:
    ScanCache(unsigned entries, Cycles walk) : lines(entries), walk(walk)
    {
    }

    Cycles
    access(TaskId task, ObjectId object)
    {
        ++useClock;
        Line *victim = &lines.front();
        for (Line &line : lines) {
            if (line.valid && line.task == task &&
                line.object == object) {
                line.lastUse = useClock;
                ++_hits;
                return 0;
            }
            if (!line.valid ||
                (victim->valid && line.lastUse < victim->lastUse))
                victim = &line;
        }
        ++_misses;
        *victim = Line{true, task, object, useClock};
        return walk;
    }

    void
    invalidateTask(TaskId task)
    {
        for (Line &line : lines) {
            if (line.valid && line.task == task)
                line = Line{};
        }
    }

    void
    flush()
    {
        for (Line &line : lines)
            line = Line{};
        useClock = 0;
    }

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
    std::vector<Line> lines;
    Cycles walk;
    std::uint64_t useClock = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

/**
 * Differential fuzz: the indexed cache must make bit-identical
 * hit/victim decisions to the reference scan on any operation stream.
 * A hit and a miss are distinguishable through access()'s return value
 * and the hit/miss counters; identical victims are forced into the
 * open by the shared stream — a divergent victim changes a later
 * access from hit to miss (or vice versa) within a few operations at
 * this capacity.
 */
TEST(CapCacheFastIndexFuzz, MatchesScanDecisions)
{
    Rng rng(fuzz::seed() ^ 0xcac4e);
    const std::uint64_t iters = fuzz::iterations();

    constexpr unsigned entries = 8;
    constexpr Cycles walk = 60;
    ScanCache ref(entries, walk);
    CapCache fast(entries, walk);

    for (std::uint64_t i = 0; i < iters; ++i) {
        const TaskId task = static_cast<TaskId>(rng.nextBounded(numTasks));
        const ObjectId object =
            static_cast<ObjectId>(rng.nextBounded(numObjects));

        switch (rng.nextBounded(16)) {
          case 0:
          case 1: // eviction shootdown
            ref.invalidateTask(task);
            fast.invalidateTask(task);
            break;
          case 2: // full flush (rare: repopulates the free-line path)
            ref.flush();
            fast.flush();
            break;
          default: {
            const Cycles want = ref.access(task, object);
            const Cycles got = fast.access(task, object);
            ASSERT_EQ(got, want)
                << "iteration " << i << ": access(" << task << ", "
                << object << ") diverged (ref "
                << (want == 0 ? "hit" : "miss") << ", fast "
                << (got == 0 ? "hit" : "miss") << ")";
            break;
          }
        }

        ASSERT_EQ(fast.hits(), ref.hits()) << "iteration " << i;
        ASSERT_EQ(fast.misses(), ref.misses()) << "iteration " << i;
    }
}

} // namespace
} // namespace capcheck::capchecker
