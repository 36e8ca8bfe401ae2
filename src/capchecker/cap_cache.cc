#include "capchecker/cap_cache.hh"

#include "base/invariant.hh"
#include "base/logging.hh"
#include "obs/prof.hh"

namespace capcheck::capchecker
{

CapCache::CapCache(unsigned entries, Cycles walk_cycles)
    : lines(entries), _walkCycles(walk_cycles), index(entries),
      lruPrev(entries, npos), lruNext(entries, npos)
{
    if (entries == 0)
        fatal("CapCache needs at least one entry");
    for (unsigned i = 0; i < entries; ++i)
        freeLines.insert(i);
}

void
CapCache::fill(Line &line, TaskId task, ObjectId object)
{
    line.valid = true;
    line.task = task;
    line.object = object;
    line.lastUse = useClock;
}

Cycles
CapCache::access(TaskId task, ObjectId object)
{
    PROF_SCOPE("capcheck", "cache.walk");
    ++useClock;
    if (const auto slot = index.find(task, object)) {
        lines[*slot].lastUse = useClock;
        lruDetach(*slot);
        lruAppend(*slot);
        ++_hits;
        if (paranoidChecks)
            checkLruSanity();
        return 0;
    }

    ++_misses;
    unsigned victim;
    if (!freeLines.empty()) {
        // Fill the *last* invalid line (see freeLines).
        const auto last = std::prev(freeLines.end());
        victim = *last;
        freeLines.erase(last);
    } else {
        victim = lruHead;
        INVARIANT(victim != npos, "CapCache: no victim with no free "
                                  "lines and an empty LRU list");
        index.erase(lines[victim].task, lines[victim].object);
        lruDetach(victim);
    }
    fill(lines[victim], task, object);
    index.insert(task, object, victim);
    lruAppend(victim);
    if (paranoidChecks)
        checkLruSanity();
    return _walkCycles;
}

void
CapCache::lruDetach(unsigned idx)
{
    const unsigned prev = lruPrev[idx];
    const unsigned next = lruNext[idx];
    if (prev != npos)
        lruNext[prev] = next;
    else
        lruHead = next;
    if (next != npos)
        lruPrev[next] = prev;
    else
        lruTail = prev;
    lruPrev[idx] = npos;
    lruNext[idx] = npos;
}

void
CapCache::lruAppend(unsigned idx)
{
    lruPrev[idx] = lruTail;
    lruNext[idx] = npos;
    if (lruTail != npos)
        lruNext[lruTail] = idx;
    else
        lruHead = idx;
    lruTail = idx;
}

void
CapCache::checkLruSanity() const
{
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const Line &a = lines[i];
        if (!a.valid)
            continue;
        INVARIANT(a.lastUse > 0 && a.lastUse <= useClock,
                  "LRU stamp %llu outside (0, %llu]",
                  static_cast<unsigned long long>(a.lastUse),
                  static_cast<unsigned long long>(useClock));
        for (std::size_t j = i + 1; j < lines.size(); ++j) {
            const Line &b = lines[j];
            if (!b.valid)
                continue;
            INVARIANT(a.lastUse != b.lastUse,
                      "duplicate LRU stamp %llu",
                      static_cast<unsigned long long>(a.lastUse));
            INVARIANT(a.task != b.task || a.object != b.object,
                      "duplicate cache line for (task %u, object %u)",
                      a.task, a.object);
        }
    }
    // Mirrors: every valid line is indexed and threaded on the LRU
    // list in ascending lastUse order; every invalid line is a free
    // line.
    std::size_t valid = 0;
    for (unsigned i = 0; i < lines.size(); ++i) {
        if (lines[i].valid) {
            ++valid;
            const auto slot = index.find(lines[i].task, lines[i].object);
            INVARIANT(slot && *slot == i,
                      "CapCache: index out of sync for line %u", i);
            INVARIANT(freeLines.count(i) == 0,
                      "CapCache: valid line %u in the free set", i);
        } else {
            INVARIANT(freeLines.count(i) == 1,
                      "CapCache: invalid line %u missing from the free "
                      "set",
                      i);
        }
    }
    INVARIANT(index.size() == valid,
              "CapCache: index holds %zu keys for %zu valid lines",
              index.size(), valid);
    std::size_t chained = 0;
    std::uint64_t last_stamp = 0;
    for (unsigned i = lruHead; i != npos; i = lruNext[i]) {
        ++chained;
        INVARIANT(lines[i].valid, "CapCache: invalid line %u on the "
                                  "LRU list",
                  i);
        INVARIANT(lines[i].lastUse > last_stamp,
                  "CapCache: LRU list out of order at line %u", i);
        last_stamp = lines[i].lastUse;
        INVARIANT(chained <= lines.size(),
                  "CapCache: LRU list cycle detected");
    }
    INVARIANT(chained == valid,
              "CapCache: LRU list threads %zu lines, %zu valid", chained,
              valid);
}

void
CapCache::invalidateTask(TaskId task)
{
    for (unsigned i = 0; i < lines.size(); ++i) {
        Line &line = lines[i];
        if (line.valid && line.task == task) {
            index.erase(line.task, line.object);
            lruDetach(i);
            freeLines.insert(i);
            line = Line{};
        }
    }
    if (paranoidChecks)
        checkLruSanity();
}

void
CapCache::flush()
{
    for (unsigned i = 0; i < lines.size(); ++i) {
        Line &line = lines[i];
        if (line.valid) {
            index.erase(line.task, line.object);
            lruDetach(i);
            freeLines.insert(i);
        }
        line = Line{};
    }
    useClock = 0;
}

} // namespace capcheck::capchecker
