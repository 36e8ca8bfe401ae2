/**
 * @file
 * Pinned result digests. Each test runs one request and compares a
 * digest of the complete wire rendering of its RunResult with a
 * recorded value; the digest covers every field that
 * RunResult::operator== compares, stats dumps included. The
 * accelerator digests were first recorded under the retired
 * reference simulation kernels (a binary-heap event queue, scanning
 * CapTable/CapCache lookups and per-cycle polling DMA replay). The
 * CPU-only, mixed-system and multi-wave digests pin the task
 * lifecycle: the Rng draw order across tasks and waves, and the
 * output check against teardown.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "base/random.hh"
#include "harness/result_json.hh"
#include "harness/run_request.hh"
#include "system/soc_config_builder.hh"
#include "workloads/kernel.hh"

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

/** What one request is pinned to produce. */
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

TEST(PinnedDigests, AccelRunsAcrossModes)
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

TEST(PinnedDigests, AccelRunWithCapCache)
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

TEST(PinnedDigests, CpuOnlyRuns)
{
    // Two tasks on the core, one after the other: the second task's
    // input comes from the Rng after the first one's draws.
    const auto request = [](SystemMode mode) {
        return RunRequest::single("kmp",
                                  SocConfigBuilder()
                                      .mode(mode)
                                      .collectStats(true)
                                      .build(),
                                  2);
    };
    expectRecorded(request(SystemMode::cpu),
                   {641500, 0x4fde8f2ed9aa4137ull});
    expectRecorded(request(SystemMode::ccpu),
                   {642596, 0x932039fa27a5495eull});
}

TEST(PinnedDigests, MixedSystem)
{
    // sweep_grid's first Fig. 9 system: eight pools drawn by Rng(1000),
    // one task each, run at seed 42.
    const auto &names = workloads::allKernelNames();
    Rng pick(1000);
    std::vector<std::string> mix;
    for (unsigned i = 0; i < 8; ++i)
        mix.push_back(names[pick.nextBounded(names.size())]);

    const auto request = [&](SystemMode mode) {
        return RunRequest::mixed(mix, SocConfigBuilder()
                                          .mode(mode)
                                          .seed(42)
                                          .collectStats(true)
                                          .build());
    };
    expectRecorded(request(SystemMode::ccpuAccel),
                   {3470714, 0xc00ad72e9d6c132aull});
    expectRecorded(request(SystemMode::ccpuCaccel),
                   {3580892, 0x5017ba97e19b78bbull});
}

TEST(PinnedDigests, MultiWaveRun)
{
    // A table with room for two tasks runs 8 tasks in 4 waves; later
    // waves draw their inputs later. gemm's timing does not depend on
    // its data, so bfs_queue (5 capabilities a task, a data-dependent
    // walk) pins the draw order across waves.
    const auto request = [](const char *benchmark, unsigned entries) {
        return RunRequest::single(benchmark,
                                  SocConfigBuilder()
                                      .mode(SystemMode::ccpuCaccel)
                                      .seed(3)
                                      .capTableEntries(entries)
                                      .collectStats(true)
                                      .build(),
                                  8);
    };
    expectRecorded(request("gemm_ncubed", 6),
                   {86356, 0xe49424a6d0dd42daull});
    expectRecorded(request("bfs_queue", 10),
                   {2424350, 0x08b88e6ab588fdd4ull});
}
