#include "harness/result_cache.hh"

#include <utility>

#include "obs/prof.hh"

namespace capcheck::harness
{

CacheTier::CacheTier(const std::string &dir, std::uint64_t max_bytes)
{
    if (!dir.empty())
        disk = std::make_unique<DiskResultCache>(dir, max_bytes);
}

std::optional<CacheTier::Hit>
CacheTier::lookup(std::uint64_t hash)
{
    {
        PROF_SCOPE("harness", "cache.mem.lookup");
        std::scoped_lock lock(mtx);
        ++memory.lookups;
        if (const auto it = entries.find(hash); it != entries.end()) {
            ++memory.hits;
            return Hit{it->second, false};
        }
    }
    if (!disk)
        return std::nullopt;
    // Results persisted by an earlier process (or the daemon) sharing
    // the cache directory.
    auto stored = disk->lookup(hash);
    if (!stored)
        return std::nullopt;
    storeInMemory(hash, *stored);
    return Hit{std::move(*stored), true};
}

void
CacheTier::store(std::uint64_t hash, const system::RunResult &result)
{
    storeInMemory(hash, result);
    if (disk)
        disk->store(hash, result);
}

void
CacheTier::storeInMemory(std::uint64_t hash,
                         const system::RunResult &result)
{
    PROF_SCOPE("harness", "cache.mem.store");
    std::scoped_lock lock(mtx);
    const auto [it, inserted] = entries.emplace(hash, result);
    if (inserted) {
        // Approximate footprint of the entry.
        memory.bytes += sizeof(system::RunResult) + result.benchmark.size() +
                        result.statsText.size() + result.statsJson.size();
    }
}

TierStats
CacheTier::stats() const
{
    TierStats s;
    {
        std::scoped_lock lock(mtx);
        s.memory = memory;
        s.memory.entries = entries.size();
    }
    if (disk) {
        s.disk = disk->stats();
        s.diskPresent = true;
    }
    return s;
}

} // namespace capcheck::harness
