/**
 * @file
 * The task memo inside SweepRunner: a batch run with shared task
 * preparations must give exactly the bytes of every request run on its
 * own without a memo (result JSON and the full stats dump), at one
 * worker and at four, and the memo must actually be used.
 */

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/json_value.hh"
#include "base/random.hh"
#include "harness/result_json.hh"
#include "harness/sweep_runner.hh"
#include "system/soc_config_builder.hh"
#include "system/task_memo.hh"
#include "workloads/kernel.hh"

#include "fig11_batch.hh"

using namespace capcheck;
using namespace capcheck::harness;
using system::RunKind;
using system::SocConfigBuilder;
using system::SystemMode;
using system::TaskMemo;
using system::TaskWork;

namespace
{

constexpr SystemMode allModes[] = {
    SystemMode::cpu, SystemMode::ccpu, SystemMode::cpuAccel,
    SystemMode::ccpuAccel, SystemMode::ccpuCaccel};

SocConfigBuilder
statsConfig(SystemMode mode, std::uint64_t seed)
{
    return SocConfigBuilder().mode(mode).seed(seed).collectStats(true);
}

/** Every request run on its own, without a memo. */
std::vector<system::RunResult>
coldResults(const std::vector<RunRequest> &requests)
{
    std::vector<system::RunResult> results;
    for (const RunRequest &req : requests)
        results.push_back(req.execute());
    return results;
}

/** Run @p requests through a SweepRunner at @p jobs workers and
 *  compare each result's bytes with @p cold. */
void
expectSameAsCold(const std::vector<RunRequest> &requests,
                 const std::vector<system::RunResult> &cold, unsigned jobs)
{
    SweepRunner runner(SweepOptions{}.withJobs(jobs));
    const std::vector<RunOutcome> outcomes = runner.run(requests);
    ASSERT_EQ(outcomes.size(), cold.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RunRequest &req = requests[i];
        EXPECT_EQ(runJson(req, outcomes[i].result), runJson(req, cold[i]))
            << req.label() << " at --jobs " << jobs;
        EXPECT_EQ(outcomes[i].result.statsText, cold[i].statsText)
            << req.label() << " at --jobs " << jobs;
    }
}

void
expectColdEqualsWarm(const std::vector<RunRequest> &requests)
{
    const std::vector<system::RunResult> cold = coldResults(requests);
    for (const unsigned jobs : {1u, 4u})
        expectSameAsCold(requests, cold, jobs);
}

TEST(TaskMemo, Fig11BatchMatchesColdRuns)
{
    expectColdEqualsWarm(fig11Batch());
}

TEST(TaskMemo, MixedSystemPairMatchesColdRuns)
{
    // sweep_grid's first Fig. 9 system: eight pools drawn by Rng(1000).
    const auto &names = workloads::allKernelNames();
    Rng pick(1000);
    std::vector<std::string> mix;
    for (unsigned i = 0; i < 8; ++i)
        mix.push_back(names[pick.nextBounded(names.size())]);
    expectColdEqualsWarm(
        {RunRequest::mixed(mix, statsConfig(SystemMode::ccpuAccel, 42).build()),
         RunRequest::mixed(mix,
                           statsConfig(SystemMode::ccpuCaccel, 42).build())});
}

TEST(TaskMemo, QuickGridKernelInEveryModeMatchesColdRuns)
{
    std::vector<RunRequest> requests;
    for (const SystemMode mode : allModes) {
        requests.push_back(
            RunRequest::single("bfs_bulk", statsConfig(mode, 1).build()));
    }
    expectColdEqualsWarm(requests);
}

TEST(TaskMemo, CostsAndWavesMatchColdRuns)
{
    // One family (kernel and seed): equal tasks but for the CPU costs,
    // and a 10-entry table whose 4 waves give later tasks buffers that
    // earlier ones left non-zero.
    CpuCostParams slow;
    slow.intOp = 2;
    slow.missPenalty = 45;
    std::vector<RunRequest> requests;
    for (const SystemMode mode :
         {SystemMode::cpu, SystemMode::ccpu, SystemMode::ccpuCaccel}) {
        requests.push_back(
            RunRequest::single("bfs_queue", statsConfig(mode, 3).build()));
        requests.push_back(RunRequest::single(
            "bfs_queue", statsConfig(mode, 3).cpuCosts(slow).build()));
    }
    requests.push_back(RunRequest::single(
        "bfs_queue",
        statsConfig(SystemMode::ccpuCaccel, 3).capTableEntries(10).build(),
        8));
    expectColdEqualsWarm(requests);
}

TEST(TaskMemo, Fig11BatchReusesItsTasks)
{
    // 108 preparations, 16 distinct (fig11_batch.hh).
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "task_memo_fig11";
    std::filesystem::remove_all(dir);
    SweepRunner runner(SweepOptions{}.withJobs(4).withJsonDir(dir.string()));
    runner.run(fig11Batch(), "fig11");

    const auto manifest =
        json::parseJsonFile((dir / "fig11.manifest.json").string());
    ASSERT_TRUE(manifest.has_value());
    const json::JsonValue *prepared = manifest->at("profile.tasksPrepared");
    const json::JsonValue *reused = manifest->at("profile.tasksReused");
    ASSERT_TRUE(prepared && reused);
    EXPECT_EQ(prepared->asNumber(), 16);
    EXPECT_EQ(reused->asNumber(), 92);
    std::filesystem::remove_all(dir);
}

/** @p benchmark's buffers laid out back to back from 64 KiB. */
TaskWork
workAt(const std::string &benchmark, RunKind kind)
{
    TaskWork work{benchmark, kind, {}, CpuCostParams{}};
    Addr base = 1 << 16;
    for (const workloads::BufferDef &def :
         workloads::kernelSpec(benchmark).buffers) {
        work.buffers.push_back({base, def.size, {}});
        base += (def.size + 63) / 64 * 64;
    }
    return work;
}

void
expectSamePrepared(const system::PreparedTask &a,
                   const system::PreparedTask &b)
{
    ASSERT_EQ(a.trace != nullptr, b.trace != nullptr);
    if (a.trace) {
        EXPECT_TRUE(*a.trace == *b.trace);
    }
    EXPECT_EQ(a.initCycles, b.initCycles);
    EXPECT_EQ(a.kernelCycles, b.kernelCycles);
    EXPECT_EQ(a.correct, b.correct);
}

TEST(TaskMemo, KeyHoldsTheBuffersBytes)
{
    const TaskWork work = workAt("kmp", RunKind::trace);
    TaskMemo memo;
    TaggedMemory mem(1 << 20);
    Rng first(7);
    memo.prepare(work, mem, first, "first", 0);

    // Equal but for the bytes: the buffers now hold the first run's
    // output, so the task is prepared again.
    Rng second(7);
    memo.prepare(work, mem, second, "second", 0);
    EXPECT_EQ(memo.tasksPrepared(), 2u);
    EXPECT_EQ(memo.tasksReused(), 0u);

    // Zeroed buffers again: the first entry serves, and restores the
    // Rng and the bytes a fresh preparation leaves.
    TaggedMemory memo_mem(1 << 20);
    TaggedMemory fresh_mem(1 << 20);
    Rng from_memo(7);
    Rng fresh(7);
    const system::PreparedTask reused =
        memo.prepare(work, memo_mem, from_memo, "third", 0);
    EXPECT_EQ(memo.tasksReused(), 1u);
    expectSamePrepared(reused, system::prepareTask(work, fresh_mem, fresh));
    EXPECT_TRUE(from_memo == fresh);
    for (const BufferMapping &buf : work.buffers) {
        std::vector<std::uint8_t> got(buf.size);
        std::vector<std::uint8_t> want(buf.size);
        memo_mem.read(buf.base, got.data(), buf.size);
        fresh_mem.read(buf.base, want.data(), buf.size);
        EXPECT_EQ(got, want);
    }
}

TEST(TaskMemo, KeyHoldsTheRngState)
{
    const TaskWork work = workAt("kmp", RunKind::cpu);
    TaskMemo memo;
    for (const std::uint64_t seed : {7u, 8u, 7u}) {
        TaggedMemory mem(1 << 20);
        Rng rng(seed);
        memo.prepare(work, mem, rng, "kmp", 0);
    }
    EXPECT_EQ(memo.tasksPrepared(), 2u);
    EXPECT_EQ(memo.tasksReused(), 1u);
}

TEST(TaskMemo, KeyHoldsCapabilitiesOnlyForACheriCore)
{
    // Each envelope prepares one task twice, with the buffers'
    // capabilities bounded to the buffer and then to twice its size.
    TaskMemo memo;
    for (const RunKind kind : {RunKind::trace, RunKind::cheriCpu}) {
        TaskWork work = workAt("aes", kind);
        for (const std::uint64_t scale : {1u, 2u}) {
            for (BufferMapping &buf : work.buffers) {
                buf.cap = cheri::Capability::root().setBounds(
                    buf.base, buf.size * scale);
            }
            TaggedMemory mem(1 << 20);
            Rng rng(5);
            memo.prepare(work, mem, rng, "aes", 0);
        }
    }
    // Only the CHERI core reads the capabilities.
    EXPECT_EQ(memo.tasksPrepared(), 3u);
    EXPECT_EQ(memo.tasksReused(), 1u);
}

TEST(TaskMemo, KeepsOnlyEnvelopesTwoRunsUse)
{
    TaskMemo memo({RunKind::cpu, RunKind::trace, RunKind::trace});
    for (const RunKind kind : {RunKind::cpu, RunKind::trace}) {
        const TaskWork work = workAt("aes", kind);
        for (int i = 0; i < 2; ++i) {
            TaggedMemory mem(1 << 20);
            Rng rng(5);
            memo.prepare(work, mem, rng, "aes", 0);
        }
    }
    // Both plain-core preparations ran; the second trace one reused.
    EXPECT_EQ(memo.tasksPrepared(), 3u);
    EXPECT_EQ(memo.tasksReused(), 1u);
}

TEST(TaskMemo, TaggedBuffersAreNeverShared)
{
    const TaskWork work = workAt("aes", RunKind::cpu);
    TaskMemo memo;
    for (int i = 0; i < 2; ++i) {
        TaggedMemory mem(1 << 20);
        mem.writeCap(work.buffers[0].base, cheri::Capability::root());
        Rng rng(5);
        memo.prepare(work, mem, rng, "tagged", 0);
        EXPECT_EQ(mem.countTags(), 0u); // init's stores cleared it
    }
    EXPECT_EQ(memo.tasksPrepared(), 2u);
    EXPECT_EQ(memo.tasksReused(), 0u);
}

} // namespace
