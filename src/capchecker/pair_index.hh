/**
 * @file
 * Open-addressed (task, object) -> slot-index hash behind CapTable and
 * CapCache lookups. It answers in O(1) what a scan of every entry
 * would, without changing any observable result — it is pure
 * bookkeeping on the host side and holds no simulated state of its
 * own.
 *
 * Linear probing with tombstones; the table is sized to a power of
 * two at >= 2x the expected entry count so probe chains stay short.
 * Keys are unique: inserting an existing key is a hard error (callers
 * update through erase + insert or keep the slot index stable).
 */

#ifndef CAPCHECK_CAPCHECKER_PAIR_INDEX_HH
#define CAPCHECK_CAPCHECKER_PAIR_INDEX_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "base/invariant.hh"
#include "base/types.hh"

namespace capcheck::capchecker
{

class PairIndex
{
  public:
    /** @param capacity maximum number of live keys ever held. */
    explicit PairIndex(unsigned capacity)
    {
        std::size_t size = 16;
        while (size < 2 * static_cast<std::size_t>(capacity) + 2)
            size *= 2;
        slots.assign(size, Slot{});
        mask = size - 1;
    }

    /** Slot index for (task, object); nullopt on a miss. */
    std::optional<std::uint32_t>
    find(TaskId task, ObjectId object) const
    {
        const std::uint64_t k = key(task, object);
        for (std::size_t i = hash(k);; i = (i + 1) & mask) {
            const Slot &slot = slots[i];
            if (slot.state == State::empty)
                return std::nullopt;
            if (slot.state == State::live && slot.key == k)
                return slot.index;
        }
    }

    /** Map (task, object) to @p index. The key must not be present. */
    void
    insert(TaskId task, ObjectId object, std::uint32_t index)
    {
        // Tombstones from erased keys lengthen probe chains but never
        // free slots; rebuild once they dominate, so install/evict
        // churn (task waves) cannot degrade lookups to O(N).
        if (2 * (occupied + 1) > slots.size())
            compact();
        const std::uint64_t k = key(task, object);
        std::size_t target = ~std::size_t{0};
        for (std::size_t i = hash(k);; i = (i + 1) & mask) {
            Slot &slot = slots[i];
            if (slot.state == State::live) {
                INVARIANT(slot.key != k,
                          "PairIndex: duplicate insert for (task %u, "
                          "object %u)",
                          task, object);
                continue;
            }
            // First tombstone on the chain is reusable, but the probe
            // must continue to the chain's end to rule out a duplicate.
            if (target == ~std::size_t{0})
                target = i;
            if (slot.state == State::empty)
                break;
        }
        Slot &slot = slots[target];
        if (slot.state != State::tombstone)
            ++occupied;
        INVARIANT(occupied < slots.size(),
                  "PairIndex: table overfull (%zu of %zu slots)",
                  occupied, slots.size());
        slot.state = State::live;
        slot.key = k;
        slot.index = index;
        ++liveKeys;
    }

    /** Drop (task, object). The key must be present. */
    void
    erase(TaskId task, ObjectId object)
    {
        const std::uint64_t k = key(task, object);
        for (std::size_t i = hash(k);; i = (i + 1) & mask) {
            Slot &slot = slots[i];
            INVARIANT(slot.state != State::empty,
                      "PairIndex: erasing absent key (task %u, "
                      "object %u)",
                      task, object);
            if (slot.state == State::live && slot.key == k) {
                slot.state = State::tombstone;
                --liveKeys;
                return;
            }
        }
    }

    std::size_t size() const { return liveKeys; }

  private:
    void
    compact()
    {
        std::vector<Slot> old;
        old.swap(slots);
        slots.assign(old.size(), Slot{});
        occupied = 0;
        liveKeys = 0;
        for (const Slot &slot : old) {
            if (slot.state != State::live)
                continue;
            for (std::size_t i = hash(slot.key);; i = (i + 1) & mask) {
                if (slots[i].state == State::empty) {
                    slots[i] = slot;
                    ++occupied;
                    ++liveKeys;
                    break;
                }
            }
        }
    }

    enum class State : std::uint8_t
    {
        empty,
        live,
        tombstone,
    };

    struct Slot
    {
        State state = State::empty;
        std::uint64_t key = 0;
        std::uint32_t index = 0;
    };

    static std::uint64_t
    key(TaskId task, ObjectId object)
    {
        return (static_cast<std::uint64_t>(task) << 32) | object;
    }

    std::size_t
    hash(std::uint64_t k) const
    {
        // splitmix64 finalizer: full-avalanche, so linear probing sees
        // well-scattered home slots even for dense task/object ids.
        k ^= k >> 30;
        k *= 0xbf58476d1ce4e5b9ull;
        k ^= k >> 27;
        k *= 0x94d049bb133111ebull;
        k ^= k >> 31;
        return static_cast<std::size_t>(k) & mask;
    }

    std::vector<Slot> slots;
    std::size_t mask = 0;
    /** Live + tombstone slots (bounds the probe-chain length). */
    std::size_t occupied = 0;
    std::size_t liveKeys = 0;
};

} // namespace capcheck::capchecker

#endif // CAPCHECK_CAPCHECKER_PAIR_INDEX_HH
