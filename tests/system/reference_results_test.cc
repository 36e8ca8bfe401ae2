/**
 * @file
 * Results recorded under reference simulation kernels — a
 * binary-heap event queue, scanning CapTable/CapCache lookups and
 * per-cycle polling DMA replay — before faster kernels replaced
 * them. The production kernels must reproduce them exactly: a digest
 * of the complete wire rendering of each RunResult covers every field
 * that RunResult::operator== compares, stats dumps included.
 * The scanning lookups live on as test oracles
 * (tests/fuzz/fast_index_fuzz_test.cc).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "harness/result_json.hh"
#include "harness/run_request.hh"
#include "system/soc_config_builder.hh"

using namespace capcheck;
using harness::RunRequest;
using system::SocConfig;
using system::SocConfigBuilder;
using system::SystemMode;

namespace
{

/** FNV-1a, 64-bit: a stable digest of a rendered result. */
std::uint64_t
digest(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** What the reference kernels produced for one request. */
struct Recorded
{
    std::uint64_t totalCycles;
    /** digest() of harness::writeResultWireJson() of the result. */
    std::uint64_t resultDigest;
};

void
expectRecorded(const RunRequest &req, const Recorded &want)
{
    const system::RunResult r = req.execute();
    std::ostringstream wire;
    json::JsonWriter w(wire);
    harness::writeResultWireJson(w, r);

    EXPECT_TRUE(r.functionallyCorrect) << req.label();
    EXPECT_EQ(r.totalCycles, want.totalCycles) << req.label();
    EXPECT_EQ(digest(wire.str()), want.resultDigest)
        << req.label() << ": result diverged:\n" << wire.str();
}

} // namespace

TEST(KernelCompare, FastMatchesRefAcrossModes)
{
    // The protected mode exercises the CapTable index; the unprotected
    // one still covers the event queue and retry-wake replay.
    // Both modes dump the same interconnect counters; the cycle
    // breakdown and table occupancy tell them apart.
    const auto request = [](SystemMode mode) {
        return RunRequest::single("aes",
                                  SocConfigBuilder()
                                      .mode(mode)
                                      .numInstances(2)
                                      .collectStats(true)
                                      .build(),
                                  2);
    };
    expectRecorded(request(SystemMode::ccpuCaccel),
                   {3361, 0xbba47b53e4734270ull});
    // No checker, no check stage: its counters are not in the dump.
    expectRecorded(request(SystemMode::ccpuAccel),
                   {3311, 0x6699fa72a7a72d19ull});
}

TEST(KernelCompare, FastMatchesRefWithCapCache)
{
    // An 8-entry table behind a 4-line cache: misses, LRU victims and
    // task shootdowns on every wave.
    const SocConfig cfg = SocConfigBuilder()
                              .mode(SystemMode::ccpuCaccel)
                              .numInstances(2)
                              .capTableEntries(8)
                              .capCache(4)
                              .collectStats(true)
                              .build();
    expectRecorded(RunRequest::single("gemm_ncubed", cfg, 2),
                   {21757, 0x288dd2e28f93ef30ull});
}
