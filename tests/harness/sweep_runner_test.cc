/**
 * @file
 * Tests for the SweepRunner: parallel determinism (the paper grid must
 * produce identical numbers at any --jobs), result caching, submission
 * -order dedup, JSON output, and failure propagation from workers.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "base/json_value.hh"
#include "base/logging.hh"
#include "harness/result_json.hh"
#include "harness/sweep_report.hh"
#include "harness/sweep_runner.hh"
#include "system/soc_config_builder.hh"

using namespace capcheck;
using namespace capcheck::harness;
using system::SocConfig;
using system::SocConfigBuilder;
using system::SystemMode;

namespace
{

SocConfig
smallConfig(SystemMode mode, std::uint64_t seed = 1)
{
    return SocConfigBuilder()
        .mode(mode)
        .numInstances(2)
        .seed(seed)
        .build();
}

/** A small but non-trivial batch: distinct seeds, modes, and a mix. */
std::vector<RunRequest>
sampleBatch()
{
    std::vector<RunRequest> requests;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        requests.push_back(RunRequest::single(
            "aes", smallConfig(SystemMode::ccpuAccel, seed)));
        requests.push_back(RunRequest::single(
            "aes", smallConfig(SystemMode::ccpuCaccel, seed)));
    }
    requests.push_back(RunRequest::mixed(
        {"aes", "backprop"}, smallConfig(SystemMode::ccpuCaccel)));
    return requests;
}

SweepRunner::Options
silent(unsigned jobs, bool cache = true)
{
    SweepRunner::Options opts;
    opts.jobs = jobs;
    opts.cacheEnabled = cache;
    opts.progress = nullptr;
    return opts;
}

} // namespace

TEST(SweepRunner, SerialAndParallelResultsAreBitIdentical)
{
    const auto requests = sampleBatch();

    SweepRunner serial(silent(1, /*cache=*/false));
    SweepRunner parallel(silent(8, /*cache=*/false));

    const auto a = serial.run(requests, "determinism");
    const auto b = parallel.run(requests, "determinism");

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // RunResult::operator== compares every field, including the
        // serialized statistics — bit-identical, not just same cycles.
        EXPECT_EQ(a[i].result, b[i].result) << requests[i].label();
        // And the serialized JSON (which omits wall time) matches
        // byte for byte.
        EXPECT_EQ(runJson(a[i].request, a[i].result),
                  runJson(b[i].request, b[i].result));
    }
    EXPECT_EQ(serial.simulationsExecuted(),
              parallel.simulationsExecuted());
}

TEST(SweepRunner, JsonTopologySweepIsJobsInvariant)
{
    // A sweep over a JSON-loaded topology must stay byte-identical at
    // any --jobs, exactly like the builtin shapes.
    namespace fs = std::filesystem;
    const fs::path path =
        fs::temp_directory_path() / "sweep-two-channel.topo.json";
    {
        std::ofstream os(path);
        os << R"({
  "name": "two-channel",
  "nodes": [
    {"name": "protect", "kind": "protect", "params": {"scheme": "auto"}},
    {"name": "memctrl0", "kind": "memctrl", "params": {}},
    {"name": "memctrl1", "kind": "memctrl", "params": {}},
    {"name": "router", "kind": "router", "params": {"channels": 2}},
    {"name": "checkstage", "kind": "checkstage",
     "params": {"checker": "protect"}},
    {"name": "xbar", "kind": "xbar", "params": {}},
    {"name": "accels", "kind": "accel_pool", "params": {"xbar": "xbar"}}
  ],
  "edges": [
    {"from": "xbar.mem_side", "to": "checkstage.cpu_side"},
    {"from": "checkstage.mem_side", "to": "router.cpu_side"},
    {"from": "router.mem_side0", "to": "memctrl0.cpu_side"},
    {"from": "router.mem_side1", "to": "memctrl1.cpu_side"}
  ]
})";
    }

    std::vector<RunRequest> requests;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        SocConfig cfg = SocConfigBuilder()
                            .mode(SystemMode::ccpuCaccel)
                            .numInstances(2)
                            .collectStats(true)
                            .seed(seed)
                            .topologyFile(path.string())
                            .build();
        requests.push_back(RunRequest::single("aes", cfg));
    }
    // Same point without the topology file: must hash differently.
    requests.push_back(RunRequest::single(
        "aes", SocConfigBuilder()
                   .mode(SystemMode::ccpuCaccel)
                   .numInstances(2)
                   .collectStats(true)
                   .seed(1)
                   .build()));
    EXPECT_NE(requests[0].hash(), requests[2].hash());
    EXPECT_NE(requests[0].label().find("topology="),
              std::string::npos);

    SweepRunner serial(silent(1, /*cache=*/false));
    SweepRunner parallel(silent(8, /*cache=*/false));
    const auto a = serial.run(requests, "topo");
    const auto b = parallel.run(requests, "topo");
    fs::remove(path);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].result, b[i].result) << requests[i].label();
        EXPECT_EQ(runJson(a[i].request, a[i].result),
                  runJson(b[i].request, b[i].result));
    }
    // The JSON record names the topology file so a run is
    // reproducible from its artifact alone.
    EXPECT_NE(runJson(a[0].request, a[0].result).find("topologyFile"),
              std::string::npos);
    EXPECT_EQ(runJson(a[2].request, a[2].result).find("topologyFile"),
              std::string::npos);
}

TEST(SweepRunner, RepeatedRequestIsServedFromCache)
{
    SweepRunner runner(silent(2));
    const auto req =
        RunRequest::single("aes", smallConfig(SystemMode::ccpuAccel));

    const auto first = runner.run({req}, "cache");
    EXPECT_FALSE(first.front().cacheHit);
    EXPECT_EQ(runner.simulationsExecuted(), 1u);

    const auto second = runner.run({req}, "cache");
    EXPECT_TRUE(second.front().cacheHit);
    EXPECT_EQ(runner.simulationsExecuted(), 1u) << "re-simulated a "
                                                   "cached request";
    EXPECT_EQ(runner.cacheHits(), 1u);
    EXPECT_EQ(first.front().result, second.front().result);
}

TEST(SweepRunner, DuplicatesInOneBatchSimulateOnce)
{
    SweepRunner runner(silent(4));
    const auto req =
        RunRequest::single("aes", smallConfig(SystemMode::ccpuAccel));

    const auto outcomes =
        runner.run({req, req, req, req}, "dedup");
    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_EQ(runner.simulationsExecuted(), 1u);
    EXPECT_FALSE(outcomes[0].cacheHit);
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].cacheHit) << i;
        EXPECT_EQ(outcomes[i].result, outcomes[0].result);
    }
}

TEST(SweepRunner, CacheDisabledReSimulates)
{
    SweepRunner runner(silent(1, /*cache=*/false));
    const auto req =
        RunRequest::single("aes", smallConfig(SystemMode::ccpuAccel));

    runner.run({req, req}, "nocache");
    EXPECT_EQ(runner.simulationsExecuted(), 2u);
    EXPECT_EQ(runner.cacheHits(), 0u);
}

TEST(SweepRunner, RejectsInvalidRequestBeforeSimulating)
{
    SweepRunner runner(silent(1));
    SocConfig bad = smallConfig(SystemMode::ccpuAccel);
    bad.numInstances = 0;
    std::vector<RunRequest> requests = {
        RunRequest::single("aes", bad, 1)};
    EXPECT_THROW(runner.run(requests, "invalid"), SimError);
    EXPECT_EQ(runner.simulationsExecuted(), 0u);
}

TEST(SweepRunner, WorkerFailurePropagatesToCaller)
{
    SweepRunner runner(silent(2));
    std::vector<RunRequest> requests = {
        RunRequest::single("aes", smallConfig(SystemMode::ccpuAccel)),
        RunRequest::single("no_such_kernel",
                           smallConfig(SystemMode::ccpuAccel))};
    EXPECT_THROW(runner.run(requests, "failing"), SimError);
}

TEST(SweepRunner, ProgressLinesNameEveryRun)
{
    std::ostringstream progress;
    SweepRunner::Options opts = silent(1);
    opts.progress = &progress;
    SweepRunner runner(opts);

    const auto req = RunRequest::single(
        "aes", smallConfig(SystemMode::ccpuAccel));
    runner.run({req, req}, "progress");

    const std::string lines = progress.str();
    EXPECT_NE(lines.find("aes"), std::string::npos);
    EXPECT_NE(lines.find("cache=miss"), std::string::npos);
    EXPECT_NE(lines.find("cache=hit"), std::string::npos);
    EXPECT_NE(lines.find("wall="), std::string::npos);
}

TEST(SweepRunner, EndOfSweepSummaryReportsTheProfile)
{
    std::ostringstream progress;
    SweepRunner::Options opts = silent(2);
    opts.progress = &progress;
    SweepRunner runner(opts);

    const auto req = RunRequest::single(
        "aes", smallConfig(SystemMode::ccpuAccel));
    runner.run({req, req}, "summary");

    const std::string lines = progress.str();
    EXPECT_NE(lines.find("[sweep summary]"), std::string::npos);
    EXPECT_NE(lines.find("2 requests"), std::string::npos);
    EXPECT_NE(lines.find("1 executed"), std::string::npos);
    EXPECT_NE(lines.find("1 cached"), std::string::npos);
    EXPECT_NE(lines.find("utilization="), std::string::npos);
}

TEST(SweepRunner, ManifestCarriesTheProfilingBlock)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "capcheck_sweep_profile_test";
    fs::remove_all(dir);

    SweepRunner::Options opts = silent(2);
    opts.jsonDir = dir.string();
    SweepRunner runner(opts);
    const auto req = RunRequest::single(
        "aes", smallConfig(SystemMode::ccpuAccel));
    runner.run({req, req}, "profiled");

    std::ifstream is(dir / "profiled.manifest.json");
    std::stringstream body;
    body << is.rdbuf();
    const std::string manifest = body.str();
    EXPECT_NE(manifest.find("\"profile\""), std::string::npos);
    // Only one unique request, so one worker ran despite jobs=2.
    EXPECT_NE(manifest.find("\"workers\": 1"), std::string::npos);
    EXPECT_NE(manifest.find("\"executed\": 1"), std::string::npos);
    EXPECT_NE(manifest.find("\"cacheHits\": 1"), std::string::npos);
    EXPECT_NE(manifest.find("\"workerUtilization\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"wallMillis\""), std::string::npos);

    fs::remove_all(dir);
}

TEST(SweepRunner, RepeatedRequestIsWrittenOnce)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "capcheck_sweep_repeat_test";
    fs::remove_all(dir);

    RunOutcome first;
    first.request = RunRequest::single(
        "aes", smallConfig(SystemMode::ccpuAccel));
    RunOutcome again = first;
    again.cacheHit = true;
    // Distinct bodies show which occurrence reached the file.
    const std::vector<std::string> bodies = {"first\n", "again\n"};
    SweepProfile profile;
    profile.tally({first, again});
    writeSweepArtefacts(dir.string(), "repeat", {first, again}, profile,
                        &bodies);

    std::ifstream run(dir / ("run-" + first.request.hashHex() + ".json"));
    std::stringstream text;
    text << run.rdbuf();
    EXPECT_EQ(text.str(), "first\n");
    std::ifstream is(dir / "repeat.manifest.json");
    std::stringstream manifest;
    manifest << is.rdbuf();
    EXPECT_NE(manifest.str().find("\"runs\": 2"), std::string::npos);

    fs::remove_all(dir);
}

TEST(SweepRunner, UncachedRepeatKeepsTheProfileThatRendered)
{
    // Without a cache both occurrences simulate, but the request has
    // one result file and one profile: the first occurrence's, which
    // timed that file's render.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "capcheck_sweep_repeat_prof_test";
    fs::remove_all(dir);

    SweepRunner::Options opts = silent(1, /*cache=*/false);
    opts.jsonDir = (dir / "json").string();
    opts.profDir = (dir / "prof").string();
    SweepRunner runner(opts);
    const auto req = RunRequest::single(
        "aes", smallConfig(SystemMode::ccpuAccel));
    runner.run({req, req}, "repeat");

    const auto doc = json::parseJsonFile(
        (dir / "prof" / ("run-" + req.hashHex() + ".prof.json")).string());
    ASSERT_TRUE(doc.has_value());
    double renders = 0;
    for (const json::JsonValue &site : doc->get("sites")->elements()) {
        if (site.get("name")->asString() == "render.runjson")
            renders += site.get("calls")->asNumber();
    }
    EXPECT_EQ(renders, 1);

    fs::remove_all(dir);
}

TEST(SweepRunner, WritesRunFilesAndManifest)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "capcheck_sweep_test";
    fs::remove_all(dir);

    SweepRunner::Options opts = silent(2);
    opts.jsonDir = dir.string();
    SweepRunner runner(opts);

    const auto requests = std::vector<RunRequest>{
        RunRequest::single("aes", smallConfig(SystemMode::ccpuAccel)),
        RunRequest::single("aes",
                           smallConfig(SystemMode::ccpuCaccel))};
    const auto outcomes = runner.run(requests, "json_sweep");

    for (const auto &out : outcomes) {
        const fs::path file =
            dir / ("run-" + out.request.hashHex() + ".json");
        ASSERT_TRUE(fs::exists(file)) << file;

        std::ifstream is(file);
        std::stringstream body;
        body << is.rdbuf();
        EXPECT_EQ(body.str(), runJson(out.request, out.result));
        EXPECT_NE(body.str().find("\"requestHash\""),
                  std::string::npos);
        EXPECT_EQ(body.str().find("wall"), std::string::npos)
            << "wall-clock leaked into deterministic JSON";
    }

    const fs::path manifest = dir / "json_sweep.manifest.json";
    ASSERT_TRUE(fs::exists(manifest));
    std::ifstream is(manifest);
    std::stringstream body;
    body << is.rdbuf();
    EXPECT_NE(body.str().find("\"sweep\": \"json_sweep\""),
              std::string::npos);
    EXPECT_NE(body.str().find("\"runs\": 2"), std::string::npos);

    fs::remove_all(dir);
}

TEST(SweepRunner, RunOneCachesAcrossCalls)
{
    SweepRunner::Options o;
    o.jobs = 1;
    SweepRunner runner(o);
    const auto req = RunRequest::single(
        "fft_strided", smallConfig(SystemMode::cpuAccel, 12345));

    const auto r1 = runner.runOne(req);
    EXPECT_EQ(runner.simulationsExecuted(), 1u);
    const auto r2 = runner.runOne(req);
    EXPECT_EQ(runner.simulationsExecuted(), 1u);
    EXPECT_EQ(r1, r2);
}
