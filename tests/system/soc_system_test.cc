#include <gtest/gtest.h>

#include "base/logging.hh"
#include "system/soc_system.hh"
#include "workloads/kernel.hh"

namespace capcheck::system
{
namespace
{

SocConfig
config(SystemMode mode)
{
    SocConfig cfg;
    cfg.mode = mode;
    cfg.seed = 3;
    return cfg;
}

/** Integration: every benchmark runs correctly on the full protected
 *  system — the paper's "no correct access is ever blocked" property. */
class ProtectedSystem : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ProtectedSystem, RunsCorrectlyWithNoExceptions)
{
    SocSystem soc(config(SystemMode::ccpuCaccel));
    const RunResult r = soc.runBenchmark(GetParam());
    EXPECT_TRUE(r.functionallyCorrect);
    EXPECT_EQ(r.exceptions, 0u);
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_GT(r.dmaBeats, 0u);
    EXPECT_LE(r.peakTableEntries, 256u);
    EXPECT_EQ(r.numTasks, 8u);
}

TEST_P(ProtectedSystem, CoarseModeAlsoCorrect)
{
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    cfg.provenance = capchecker::Provenance::coarse;
    const RunResult r = SocSystem(cfg).runBenchmark(GetParam());
    EXPECT_TRUE(r.functionallyCorrect);
    EXPECT_EQ(r.exceptions, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ProtectedSystem,
                         ::testing::ValuesIn(
                             workloads::allKernelNames()),
                         [](const auto &info) { return info.param; });

TEST(SocSystem, CpuOnlyModesMatchFunctionally)
{
    for (const SystemMode mode : {SystemMode::cpu, SystemMode::ccpu}) {
        const RunResult r =
            SocSystem(config(mode)).runBenchmark("sort_radix", 2);
        EXPECT_TRUE(r.functionallyCorrect);
        EXPECT_EQ(r.driverAllocCycles, 0u);
        EXPECT_GT(r.totalCycles, 0u);
    }
}

TEST(SocSystem, CheckerCostsMoreThanUnprotected)
{
    const RunResult base = SocSystem(config(SystemMode::ccpuAccel))
                               .runBenchmark("spmv_crs");
    const RunResult with = SocSystem(config(SystemMode::ccpuCaccel))
                               .runBenchmark("spmv_crs");
    EXPECT_GT(with.totalCycles, base.totalCycles);
    // But the overhead is small (paper: within a few percent).
    EXPECT_LT(with.overheadVs(base), 0.10);
}

TEST(SocSystem, CheriCpuCostsMoreThanPlainCpu)
{
    const RunResult cpu =
        SocSystem(config(SystemMode::cpu)).runBenchmark("kmp", 2);
    const RunResult ccpu =
        SocSystem(config(SystemMode::ccpu)).runBenchmark("kmp", 2);
    EXPECT_GE(ccpu.totalCycles, cpu.totalCycles);
}

TEST(SocSystem, GemmBlockedFasterOnCheriCpu)
{
    // The Fig. 10(g) effect: 128-bit capability copies beat 64-bit
    // copies on the copy-heavy blocked GEMM.
    const RunResult cpu = SocSystem(config(SystemMode::cpu))
                              .runBenchmark("gemm_blocked", 2);
    const RunResult ccpu = SocSystem(config(SystemMode::ccpu))
                               .runBenchmark("gemm_blocked", 2);
    EXPECT_LT(ccpu.totalCycles, cpu.totalCycles);
}

TEST(SocSystem, MemoryBoundBenchmarksSlowerOnAccelerator)
{
    // Section 6.1: bfs/stencil are memory-bound and lose to the CPU.
    for (const char *name : {"bfs_bulk", "stencil2d", "stencil3d"}) {
        const RunResult cpu =
            SocSystem(config(SystemMode::cpu)).runBenchmark(name);
        const RunResult accel = SocSystem(config(SystemMode::ccpuCaccel))
                                    .runBenchmark(name);
        EXPECT_LT(accel.speedupVs(cpu), 1.0) << name;
    }
}

TEST(SocSystem, ComputeBoundBenchmarksMuchFasterOnAccelerator)
{
    for (const char *name : {"backprop", "viterbi", "gemm_ncubed"}) {
        const RunResult cpu =
            SocSystem(config(SystemMode::cpu)).runBenchmark(name);
        const RunResult accel = SocSystem(config(SystemMode::ccpuCaccel))
                                    .runBenchmark(name);
        EXPECT_GT(accel.speedupVs(cpu), 100.0) << name;
    }
}

TEST(SocSystem, ParallelismScalesThroughput)
{
    Cycles prev_per_task = ~Cycles{0};
    for (unsigned tasks : {1u, 2u, 4u, 8u}) {
        const RunResult r = SocSystem(config(SystemMode::ccpuCaccel))
                                .runBenchmark("gemm_ncubed", tasks);
        EXPECT_TRUE(r.functionallyCorrect);
        const Cycles per_task = r.totalCycles / tasks;
        EXPECT_LE(per_task, prev_per_task);
        prev_per_task = per_task;
    }
}

TEST(SocSystem, MixedSystemRunsAllKernelsCorrectly)
{
    const std::vector<std::string> mix = {"aes", "viterbi", "spmv_crs",
                                          "sort_merge"};
    const RunResult base =
        SocSystem(config(SystemMode::ccpuAccel)).runMixed(mix);
    const RunResult with =
        SocSystem(config(SystemMode::ccpuCaccel)).runMixed(mix);
    EXPECT_TRUE(base.functionallyCorrect);
    EXPECT_TRUE(with.functionallyCorrect);
    EXPECT_EQ(with.exceptions, 0u);
    EXPECT_EQ(with.numTasks, 4u);
    EXPECT_GT(with.totalCycles, base.totalCycles);
}

TEST(SocSystem, DeterministicAcrossRuns)
{
    const RunResult a = SocSystem(config(SystemMode::ccpuCaccel))
                            .runBenchmark("fft_strided");
    const RunResult b = SocSystem(config(SystemMode::ccpuCaccel))
                            .runBenchmark("fft_strided");
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.dmaBeats, b.dmaBeats);
}

TEST(SocSystem, SeedChangesWorkloadNotCorrectness)
{
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    cfg.seed = 99;
    const RunResult r = SocSystem(cfg).runBenchmark("kmp");
    EXPECT_TRUE(r.functionallyCorrect);
}

TEST(SocSystem, CheckLatencyAblationHurtsLatencyBoundKernels)
{
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    cfg.checkCycles = 1;
    const RunResult fast = SocSystem(cfg).runBenchmark("md_knn");
    cfg.checkCycles = 8;
    const RunResult slow = SocSystem(cfg).runBenchmark("md_knn");
    EXPECT_GT(slow.totalCycles, fast.totalCycles);
}

TEST(SocSystem, PerAccelCheckersMatchSharedCheckerTiming)
{
    // Section 5.2.1: distributing CapCheckers buys nothing on a
    // single-beat interconnect.
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    const RunResult shared = SocSystem(cfg).runBenchmark("sort_radix");
    cfg.perAccelCheckers = true;
    cfg.capTableEntries = 32;
    const RunResult split = SocSystem(cfg).runBenchmark("sort_radix");
    EXPECT_TRUE(split.functionallyCorrect);
    EXPECT_EQ(split.totalCycles, shared.totalCycles);
    EXPECT_EQ(split.peakTableEntries, shared.peakTableEntries);
}

TEST(SocSystem, CapCacheCostsCyclesWhenUndersized)
{
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    const RunResult sram = SocSystem(cfg).runBenchmark("aes");

    cfg.capCacheEntries = 2; // below the 8-task working set
    const RunResult tiny = SocSystem(cfg).runBenchmark("aes");
    EXPECT_TRUE(tiny.functionallyCorrect);
    EXPECT_GT(tiny.totalCycles, sram.totalCycles);

    cfg.capCacheEntries = 64; // covers the working set
    const RunResult big = SocSystem(cfg).runBenchmark("aes");
    EXPECT_LT(big.totalCycles, tiny.totalCycles);
}

TEST(SocSystem, SmallCapTableSerializesTasksIntoWaves)
{
    // Fig. 6: the driver stalls when the capability table is full,
    // resuming when an eviction frees entries. gemm needs 3 entries
    // per task, so a 6-entry table runs 8 tasks in 4 waves of 2.
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    const RunResult full = SocSystem(cfg).runBenchmark("gemm_ncubed");

    cfg.capTableEntries = 6;
    const RunResult waves = SocSystem(cfg).runBenchmark("gemm_ncubed");

    EXPECT_TRUE(waves.functionallyCorrect);
    EXPECT_EQ(waves.exceptions, 0u);
    EXPECT_EQ(waves.numTasks, 8u);
    EXPECT_LE(waves.peakTableEntries, 6u);
    // Serialization costs real time (four 2-task waves lose the
    // bus-level overlap an 8-task wave enjoys).
    EXPECT_GT(waves.totalCycles, full.totalCycles * 5 / 4);
}

TEST(SocSystem, TableTooSmallForOneTaskIsFatal)
{
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    cfg.capTableEntries = 2; // gemm needs 3 capabilities
    EXPECT_THROW(SocSystem(cfg).runBenchmark("gemm_ncubed"), SimError);
}

TEST(SocSystem, Fig8HeadlineOverheadBounds)
{
    // Pin the paper's headline: protection overhead within 5% for most
    // benchmarks, small geometric mean, md_knn the outlier.
    std::vector<double> ratios;
    unsigned within_5pct = 0;
    double md_knn_overhead = 0;
    double worst_other = 0;
    for (const std::string &name : workloads::allKernelNames()) {
        const RunResult base = SocSystem(config(SystemMode::ccpuAccel))
                                   .runBenchmark(name);
        const RunResult with =
            SocSystem(config(SystemMode::ccpuCaccel)).runBenchmark(name);
        const double overhead = with.overheadVs(base);
        ratios.push_back(1.0 + overhead);
        within_5pct += overhead <= 0.05;
        if (name == "md_knn")
            md_knn_overhead = overhead;
        else
            worst_other = std::max(worst_other, overhead);
    }
    EXPECT_GE(within_5pct, 16u);
    EXPECT_LT(geometricMean(ratios) - 1.0, 0.04);
    // md_knn is the outlier, clearly above everything else.
    EXPECT_GT(md_knn_overhead, worst_other);
}

TEST(SocSystem, StatsDumpOnRequest)
{
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    const RunResult quiet = SocSystem(cfg).runBenchmark("aes");
    EXPECT_TRUE(quiet.statsText.empty());

    cfg.collectStats = true;
    const RunResult verbose = SocSystem(cfg).runBenchmark("aes");
    EXPECT_NE(verbose.statsText.find("soc.xbar.grants"),
              std::string::npos);
    EXPECT_NE(verbose.statsText.find("soc.memctrl.served"),
              std::string::npos);
    EXPECT_NE(verbose.statsText.find("soc.checkstage.checked"),
              std::string::npos);
}

/** Value of the scalar stat @p name in a stats text dump. */
std::uint64_t
statValue(const std::string &text, const std::string &name)
{
    const std::size_t at = text.find(name + " ");
    if (at == std::string::npos) {
        ADD_FAILURE() << "no stat " << name;
        return 0;
    }
    return std::stoull(text.substr(at + name.size()));
}

TEST(SocSystem, ZeroLatencyCheckWithCapCacheChecksEachBeatOnce)
{
    // A zero-cycle check whose capability cache misses on some beats
    // keeps the stage busy, so the next cache-hit beat's pass-through
    // can find the memory controller taken that cycle. That beat
    // waits in the stage for the next cycle; it is neither refused
    // nor checked a second time when the crossbar would retry it.
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    cfg.seed = 1;
    cfg.checkCycles = 0;
    cfg.capCacheEntries = 4;
    cfg.collectStats = true;
    const RunResult r = SocSystem(cfg).runBenchmark("bfs_bulk");
    EXPECT_TRUE(r.functionallyCorrect);
    const std::uint64_t grants =
        statValue(r.statsText, "soc.xbar.grants");
    EXPECT_EQ(grants, r.dmaBeats);
    EXPECT_EQ(statValue(r.statsText, "soc.checkstage.checked"), grants);
    EXPECT_EQ(statValue(r.statsText, "soc.memctrl.served"), grants);
}

TEST(SocSystem, BurstArbitrationStaysCorrect)
{
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    cfg.xbarMaxBurst = 16;
    const RunResult r = SocSystem(cfg).runBenchmark("fft_strided");
    EXPECT_TRUE(r.functionallyCorrect);
    EXPECT_EQ(r.exceptions, 0u);
}

TEST(SocSystem, GuardBytesPreserveCorrectness)
{
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    cfg.guardBytes = 64;
    const RunResult r = SocSystem(cfg).runBenchmark("sort_radix");
    EXPECT_TRUE(r.functionallyCorrect);
}

TEST(SocSystem, RunResultHelpers)
{
    RunResult a;
    a.totalCycles = 200;
    RunResult b;
    b.totalCycles = 100;
    EXPECT_DOUBLE_EQ(b.speedupVs(a), 2.0);
    EXPECT_DOUBLE_EQ(a.overheadVs(b), 1.0);
    EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-12);
}

TEST(SocSystem, ModeHelpers)
{
    EXPECT_FALSE(modeUsesAccel(SystemMode::cpu));
    EXPECT_TRUE(modeUsesAccel(SystemMode::ccpuCaccel));
    EXPECT_TRUE(modeUsesCheriCpu(SystemMode::ccpu));
    EXPECT_FALSE(modeUsesCheriCpu(SystemMode::cpuAccel));
    EXPECT_TRUE(modeUsesCapChecker(SystemMode::ccpuCaccel));
    EXPECT_FALSE(modeUsesCapChecker(SystemMode::ccpuAccel));
    EXPECT_STREQ(systemModeName(SystemMode::ccpuCaccel), "ccpu+caccel");
}

} // namespace
} // namespace capcheck::system
