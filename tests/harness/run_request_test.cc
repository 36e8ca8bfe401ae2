/** @file Tests for RunRequest construction, hashing, and execution. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "harness/run_request.hh"
#include "system/soc_config_builder.hh"

using namespace capcheck;
using namespace capcheck::harness;
using system::SocConfig;
using system::SocConfigBuilder;
using system::SystemMode;

namespace
{

SocConfig
smallConfig(SystemMode mode = SystemMode::ccpuAccel)
{
    return SocConfigBuilder().mode(mode).numInstances(2).build();
}

} // namespace

TEST(RunRequest, SingleResolvesZeroTasksAtConstruction)
{
    // The old runMode() helper deferred num_tasks = 0 resolution into
    // SocSystem; RunRequest resolves it immediately, so the stored
    // request always states its real task count.
    SocConfig cfg; // numInstances = 8
    const auto implicit = RunRequest::single("aes", cfg);
    const auto explicit8 = RunRequest::single("aes", cfg, 8);

    EXPECT_EQ(implicit.numTasks, 8u);
    EXPECT_EQ(implicit, explicit8);
    EXPECT_EQ(implicit.hash(), explicit8.hash());
}

TEST(RunRequest, TaskCountChangesHash)
{
    SocConfig cfg;
    EXPECT_NE(RunRequest::single("aes", cfg, 4).hash(),
              RunRequest::single("aes", cfg, 8).hash());
}

TEST(RunRequest, HashIsStableAcrossCalls)
{
    const auto req = RunRequest::single("gemm_ncubed", smallConfig());
    EXPECT_EQ(req.hash(), req.hash());
    EXPECT_EQ(req.hashHex().size(), 16u);
}

TEST(RunRequest, EveryConfigFieldFeedsTheHash)
{
    const auto base = RunRequest::single("aes", smallConfig());

    auto with = [](SocConfig cfg) {
        return RunRequest::single("aes", std::move(cfg), 2).hash();
    };

    SocConfig seed_cfg = smallConfig();
    seed_cfg.seed = 2;
    EXPECT_NE(base.hash(), with(seed_cfg));

    SocConfig lat_cfg = smallConfig();
    lat_cfg.memLatency = 31;
    EXPECT_NE(base.hash(), with(lat_cfg));

    SocConfig cost_cfg = smallConfig();
    cost_cfg.cpuCosts.missPenalty += 1;
    EXPECT_NE(base.hash(), with(cost_cfg));

    SocConfig drv_cfg = smallConfig();
    drv_cfg.driverCosts.capDerive += 1;
    EXPECT_NE(base.hash(), with(drv_cfg));
}

TEST(RunRequest, TopologyFileBytesFeedTheHash)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("capcheck-hash-topo-" + std::to_string(::getpid()) + ".json"))
            .string();
    const auto write = [&](const char *text) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    };
    SocConfig cfg = smallConfig();
    cfg.topologyFile = path;
    const auto hash = [&] {
        return RunRequest::single("aes", cfg, 2).hash();
    };

    write("{\"name\": \"a\"}");
    const std::uint64_t original = hash();
    EXPECT_EQ(hash(), original) << "an unchanged file keeps its hash";
    write("{\"name\": \"a\"}");
    EXPECT_EQ(hash(), original) << "rewriting the same bytes";
    write("{\"name\": \"b\"}");
    EXPECT_NE(hash(), original) << "the file was edited in place";

    // The path stays in the hash: the same bytes elsewhere differ.
    const std::string copy = path + ".copy.json";
    std::filesystem::copy_file(
        path, copy, std::filesystem::copy_options::overwrite_existing);
    SocConfig moved = cfg;
    moved.topologyFile = copy;
    EXPECT_NE(RunRequest::single("aes", moved, 2).hash(), hash());
    std::remove(copy.c_str());
    std::remove(path.c_str());
}

TEST(RunRequest, BenchmarkNameChangesHash)
{
    const auto cfg = smallConfig();
    EXPECT_NE(RunRequest::single("aes", cfg).hash(),
              RunRequest::single("fft_strided", cfg).hash());
}

TEST(RunRequest, MixedDiffersFromSingle)
{
    const auto cfg = smallConfig();
    const auto single = RunRequest::single("aes", cfg, 1);
    const auto mixed = RunRequest::mixed({"aes"}, cfg);

    // Same benchmark list and task count, but they were constructed
    // identically — these two really are the same experiment.
    EXPECT_FALSE(mixed.isMixed());
    EXPECT_EQ(single.hash(), mixed.hash());

    const auto two = RunRequest::mixed({"aes", "aes"}, cfg);
    EXPECT_TRUE(two.isMixed());
    EXPECT_EQ(two.numTasks, 2u);
    EXPECT_NE(two.hash(), single.hash());
}

TEST(RunRequest, LabelNamesTheExperiment)
{
    const auto req =
        RunRequest::single("aes", smallConfig(SystemMode::ccpuAccel), 2);
    const std::string label = req.label();
    EXPECT_NE(label.find("aes"), std::string::npos);
    EXPECT_NE(label.find("tasks=2"), std::string::npos);
    EXPECT_NE(label.find("seed=1"), std::string::npos);
}

TEST(RunRequest, ExecuteRunsTheSimulation)
{
    const auto req = RunRequest::single("aes", smallConfig(), 1);
    const auto result = req.execute();
    EXPECT_TRUE(result.functionallyCorrect);
    EXPECT_GT(result.totalCycles, 0u);
    EXPECT_EQ(result.numTasks, 1u);
}

TEST(RunRequest, ExecuteIsDeterministic)
{
    const auto req = RunRequest::single("backprop", smallConfig(), 2);
    EXPECT_EQ(req.execute(), req.execute());
}
