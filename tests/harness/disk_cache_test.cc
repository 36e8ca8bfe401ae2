/**
 * @file
 * Tests for the disk-backed result cache: round-trip fidelity,
 * persistence across instances (the daemon-restart contract),
 * version/hash validation of on-disk entries, and the LRU byte-cap
 * eviction that bounds growth. Also the two-level CacheTier that puts
 * the disk cache behind the in-memory one.
 */

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "harness/disk_cache.hh"
#include "harness/result_cache.hh"

using namespace capcheck;
using harness::CacheTier;
using harness::DiskResultCache;

namespace
{

namespace fs = std::filesystem;

struct TempDir
{
    fs::path path;

    TempDir()
    {
        path = fs::temp_directory_path() /
               ("capcheck_disk_cache_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter++));
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }

    static inline int counter = 0;
};

system::RunResult
sampleResult(std::uint64_t cycles, std::string stats = "s")
{
    system::RunResult r;
    r.benchmark = "aes";
    r.mode = system::SystemMode::ccpuCaccel;
    r.numTasks = 2;
    r.totalCycles = cycles;
    r.kernelCycles = cycles / 2;
    r.functionallyCorrect = true;
    r.statsText = std::move(stats);
    r.statsJson = "{\n  \"x\": 1\n}";
    return r;
}

} // namespace

TEST(DiskResultCache, StoreLookupRoundTripsEveryField)
{
    TempDir dir;
    DiskResultCache cache(dir.path.string());
    const auto result = sampleResult(1000);
    cache.store(0xabcdef0123456789ull, result);
    const auto back = cache.lookup(0xabcdef0123456789ull);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, result);
}

TEST(DiskResultCache, MissOnUnknownHash)
{
    TempDir dir;
    DiskResultCache cache(dir.path.string());
    EXPECT_FALSE(cache.lookup(42).has_value());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.lookups, 1u);
    EXPECT_EQ(stats.hits, 0u);
}

TEST(DiskResultCache, EntriesSurviveANewInstance)
{
    TempDir dir;
    const auto result = sampleResult(77);
    {
        DiskResultCache first(dir.path.string());
        first.store(7, result);
    }
    // A second instance (a restarted daemon) indexes what is on disk.
    DiskResultCache second(dir.path.string());
    EXPECT_EQ(second.stats().entries, 1u);
    const auto back = second.lookup(7);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, result);
    EXPECT_EQ(second.stats().hits, 1u);
}

TEST(DiskResultCache, CorruptEntryIsDroppedNotServed)
{
    TempDir dir;
    DiskResultCache cache(dir.path.string());
    cache.store(9, sampleResult(1));
    ASSERT_TRUE(cache.lookup(9).has_value());

    // Truncate the file behind the cache's back.
    std::ofstream(cache.pathFor(9),
                  std::ios::trunc)
        << "{\"version\": 1, \"hash\"";
    DiskResultCache fresh(dir.path.string());
    EXPECT_FALSE(fresh.lookup(9).has_value());
    // The poisoned file is gone, not retried forever.
    EXPECT_FALSE(fs::exists(fresh.pathFor(9)));
}

TEST(DiskResultCache, HashMismatchInsideTheFileIsAMiss)
{
    TempDir dir;
    DiskResultCache cache(dir.path.string());
    cache.store(0x1111, sampleResult(1));
    // Rename the entry so the name claims a different hash than the
    // body records.
    fs::rename(cache.pathFor(0x1111), cache.pathFor(0x2222));
    DiskResultCache fresh(dir.path.string());
    EXPECT_FALSE(fresh.lookup(0x2222).has_value());
}

TEST(DiskResultCache, ForeignFilesAreIgnored)
{
    TempDir dir;
    fs::create_directories(dir.path);
    std::ofstream(dir.path / "README.txt") << "not a cache entry";
    std::ofstream(dir.path / "zz.json") << "{}";
    DiskResultCache cache(dir.path.string());
    EXPECT_EQ(cache.stats().entries, 0u);
    cache.store(1, sampleResult(1));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_TRUE(fs::exists(dir.path / "README.txt"));
}

TEST(DiskResultCache, ByteCapEvictsLeastRecentlyUsed)
{
    TempDir dir;
    // Measure one entry, then size the cap for about two of them.
    std::uint64_t oneEntry = 0;
    {
        DiskResultCache probe(dir.path.string());
        probe.store(1, sampleResult(1));
        oneEntry = probe.stats().bytes;
        ASSERT_GT(oneEntry, 0u);
    }
    fs::remove_all(dir.path);

    DiskResultCache cache(dir.path.string(), oneEntry * 2 + 1);
    cache.store(1, sampleResult(1));
    cache.store(2, sampleResult(2));
    EXPECT_EQ(cache.stats().entries, 2u);

    // Touch 1 so 2 is the LRU victim when 3 arrives.
    ASSERT_TRUE(cache.lookup(1).has_value());
    cache.store(3, sampleResult(3));

    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_GE(stats.evictions, 1u);
    EXPECT_TRUE(cache.lookup(1).has_value());
    EXPECT_FALSE(cache.lookup(2).has_value()) << "evicted the wrong "
                                                 "entry";
    EXPECT_TRUE(cache.lookup(3).has_value());
    EXPECT_FALSE(fs::exists(cache.pathFor(2)));
}

TEST(DiskResultCache, UnboundedWhenCapIsZero)
{
    TempDir dir;
    DiskResultCache cache(dir.path.string(), 0);
    for (std::uint64_t h = 1; h <= 8; ++h)
        cache.store(h, sampleResult(h));
    EXPECT_EQ(cache.stats().entries, 8u);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(DiskResultCache, StatsTrackOccupancyAndTraffic)
{
    TempDir dir;
    DiskResultCache cache(dir.path.string());
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);

    cache.store(1, sampleResult(1));
    cache.store(2, sampleResult(2, std::string(500, 'x')));
    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_GT(stats.bytes, 500u);

    cache.lookup(1);
    cache.lookup(1);
    cache.lookup(99);
    EXPECT_EQ(cache.stats().lookups, 3u);
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(CacheTier, MemoryOnlyTierHitsFromMemory)
{
    CacheTier tier("", 0);
    EXPECT_FALSE(tier.lookup(1).has_value());
    tier.store(1, sampleResult(100));
    const auto hit = tier.lookup(1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->fromDisk);
    EXPECT_EQ(hit->result, sampleResult(100));

    const harness::TierStats s = tier.stats();
    EXPECT_FALSE(s.diskPresent);
    EXPECT_EQ(s.memory.entries, 1u);
    EXPECT_EQ(s.memory.lookups, 2u);
    EXPECT_EQ(s.memory.hits, 1u);
}

TEST(CacheTier, StoreLandsInBothLevels)
{
    TempDir dir;
    CacheTier tier(dir.path.string(), 0);
    tier.store(7, sampleResult(700));

    const harness::TierStats s = tier.stats();
    ASSERT_TRUE(s.diskPresent);
    EXPECT_EQ(s.memory.entries, 1u);
    EXPECT_EQ(s.disk.entries, 1u);
    // The disk level is the cache directory: a fresh instance reads
    // the entry back.
    DiskResultCache disk(dir.path.string());
    const auto stored = disk.lookup(7);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(*stored, sampleResult(700));
}

TEST(CacheTier, DiskHitIsPromotedToMemory)
{
    TempDir dir;
    CacheTier(dir.path.string(), 0).store(9, sampleResult(900));

    // A new tier on the same directory (a restarted process): the
    // first lookup misses memory and hits disk, the second hits
    // memory without reading the disk again.
    CacheTier tier(dir.path.string(), 0);
    const auto first = tier.lookup(9);
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(first->fromDisk);
    EXPECT_EQ(first->result, sampleResult(900));
    const auto second = tier.lookup(9);
    ASSERT_TRUE(second.has_value());
    EXPECT_FALSE(second->fromDisk);
    EXPECT_EQ(second->result, first->result);
    EXPECT_FALSE(tier.lookup(10).has_value());

    const harness::TierStats s = tier.stats();
    ASSERT_TRUE(s.diskPresent);
    EXPECT_EQ(s.memory.entries, 1u);
    EXPECT_EQ(s.memory.lookups, 3u);
    EXPECT_EQ(s.memory.hits, 1u);
    EXPECT_EQ(s.disk.entries, 1u);
    EXPECT_EQ(s.disk.lookups, 2u);
    EXPECT_EQ(s.disk.hits, 1u);
}
