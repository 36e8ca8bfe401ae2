#include "capchecker/cap_table.hh"

#include "base/invariant.hh"
#include "base/logging.hh"
#include "obs/prof.hh"

namespace capcheck::capchecker
{

CapTable::CapTable(unsigned num_entries)
    : entries(num_entries), index(num_entries)
{
    if (num_entries == 0)
        fatal("CapTable needs at least one entry");
}

CapTable::Entry *
CapTable::find(TaskId task, ObjectId object)
{
    if (const auto slot = index.find(task, object))
        return &entries[*slot];
    return nullptr;
}

std::optional<unsigned>
CapTable::install(TaskId task, ObjectId object,
                  const cheri::Capability &cap)
{
    if (!cap.tag())
        fatal("CapTable: refusing to install an untagged capability");

    // Re-installing for the same (task, object) overwrites in place.
    if (Entry *existing = find(task, object)) {
        existing->exception = false;
        cap.compress(existing->pesbt, existing->cursor);
        existing->tag = cap.tag();
        existing->decoded = cap;
        return static_cast<unsigned>(existing - entries.data());
    }

    for (unsigned i = 0; i < entries.size(); ++i) {
        Entry &entry = entries[i];
        if (entry.valid)
            continue;
        entry.valid = true;
        entry.exception = false;
        entry.task = task;
        entry.object = object;
        cap.compress(entry.pesbt, entry.cursor);
        entry.tag = cap.tag();
        // The hardware decoder recovers bounds/permissions from the
        // compressed form; decode what was actually stored.
        entry.decoded = cheri::Capability::fromCompressed(
            entry.tag, entry.pesbt, entry.cursor);
        ++liveCount;
        index.insert(task, object, i);
        if (paranoidChecks)
            checkConservation();
        return i;
    }
    return std::nullopt;
}

const CapTable::Entry *
CapTable::lookup(TaskId task, ObjectId object) const
{
    PROF_SCOPE("capcheck", "table.lookup");
    return const_cast<CapTable *>(this)->find(task, object);
}

void
CapTable::markException(TaskId task, ObjectId object)
{
    Entry *entry = find(task, object);
    INVARIANT(entry != nullptr,
              "CapTable: marking an exception for (task %u, object %u) "
              "with no matching entry — driver/checker desync",
              task, object);
    entry->exception = true;
}

unsigned
CapTable::evictTask(TaskId task)
{
    unsigned freed = 0;
    for (Entry &entry : entries) {
        if (entry.valid && entry.task == task) {
            index.erase(entry.task, entry.object);
            entry = Entry{};
            ++freed;
        }
    }
    INVARIANT(liveCount >= freed,
              "CapTable: evicting %u entries of task %u with only %zu "
              "live",
              freed, task, liveCount);
    liveCount -= freed;
    if (paranoidChecks)
        checkConservation();
    return freed;
}

void
CapTable::checkConservation() const
{
    std::size_t valid = 0;
    for (const Entry &entry : entries)
        valid += entry.valid;
    INVARIANT(valid == liveCount,
              "CapTable: liveCount %zu but %zu valid entries", liveCount,
              valid);
    INVARIANT(index.size() == liveCount,
              "CapTable: index holds %zu keys for %zu live entries",
              index.size(), liveCount);
    for (unsigned i = 0; i < entries.size(); ++i) {
        if (!entries[i].valid)
            continue;
        const auto slot = index.find(entries[i].task, entries[i].object);
        INVARIANT(slot && *slot == i,
                  "CapTable: index out of sync for entry %u "
                  "(task %u, object %u)",
                  i, entries[i].task, entries[i].object);
    }
}

std::vector<unsigned>
CapTable::exceptionEntries() const
{
    std::vector<unsigned> out;
    for (unsigned i = 0; i < entries.size(); ++i) {
        if (entries[i].valid && entries[i].exception)
            out.push_back(i);
    }
    return out;
}

} // namespace capcheck::capchecker
