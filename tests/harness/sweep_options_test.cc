/**
 * @file
 * Tests for the unified SweepOptions struct: the fluent builder, the
 * environment-variable defaults, and the observability sink table
 * (obsSinks()) that the bench flags, the per-run path derivation, the
 * directory creation and the capcheckd submit message all loop over.
 */

#include <unistd.h>

#include <array>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/json_value.hh"
#include "bench/args.hh"
#include "harness/run_request.hh"
#include "harness/sweep_options.hh"
#include "service/wire.hh"
#include "system/soc_config_builder.hh"

using namespace capcheck;
using harness::RunRequest;
using harness::SweepOptions;
using system::SocConfigBuilder;
using system::SystemMode;

namespace
{

RunRequest
sampleRequest()
{
    return RunRequest::single("aes",
                              SocConfigBuilder()
                                  .mode(SystemMode::ccpuCaccel)
                                  .numInstances(2)
                                  .build());
}

/** setenv/unsetenv with restore-on-scope-exit. */
struct ScopedEnv
{
    std::string key;
    std::string saved;
    bool hadValue = false;

    ScopedEnv(const std::string &key, const char *value) : key(key)
    {
        if (const char *old = std::getenv(key.c_str())) {
            saved = old;
            hadValue = true;
        }
        if (value)
            ::setenv(key.c_str(), value, 1);
        else
            ::unsetenv(key.c_str());
    }
    ~ScopedEnv()
    {
        if (hadValue)
            ::setenv(key.c_str(), saved.c_str(), 1);
        else
            ::unsetenv(key.c_str());
    }
};

namespace fs = std::filesystem;

/** Scratch directory, unique per process and per instance. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        path = fs::temp_directory_path() /
               ("capcheck_sinks_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++));
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string str(const std::string &leaf) const
    {
        return (path / leaf).string();
    }

    static inline int counter = 0;
};

/** bench::parseOptions over @p args, as if after the program name. */
bench::BenchOptions
parse(std::vector<std::string> args)
{
    std::string prog = "harness";
    std::vector<char *> argv = {prog.data()};
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return bench::parseOptions(static_cast<int>(argv.size()),
                               argv.data());
}

/** What a sink's flag is given: a directory named after the flag
 *  (without its dashes), or the samples interval. */
std::string
flagValue(const harness::ObsSink &sink, const TempDir &tmp)
{
    return sink.dir ? tmp.str(sink.flag + 2) : "1000";
}

} // namespace

TEST(SweepOptions, FluentBuilderReadsAsOneExpression)
{
    // The artefact fields are checked row by row in
    // ObsSinks.EveryRowParsesNamesCreatesAndRoundTrips.
    const SweepOptions opts = SweepOptions{}
                                  .withJobs(4)
                                  .withJsonDir("out")
                                  .withServerSocket("/tmp/s.sock")
                                  .withCacheDir("/tmp/cache");
    EXPECT_EQ(opts.jobs, 4u);
    EXPECT_EQ(opts.jsonDir, "out");
    EXPECT_EQ(opts.serverSocket, "/tmp/s.sock");
    EXPECT_EQ(opts.cacheDir, "/tmp/cache");
}

TEST(SweepOptions, DefaultsAreQuietInProcessAndCached)
{
    const SweepOptions opts;
    EXPECT_EQ(opts.jobs, 0u);
    EXPECT_TRUE(opts.cacheEnabled);
    EXPECT_EQ(opts.progress, nullptr);
    EXPECT_TRUE(opts.serverSocket.empty());
    EXPECT_TRUE(opts.cacheDir.empty());
    EXPECT_GT(opts.cacheMaxBytes, 0u) << "disk cache must not "
                                         "default to unbounded";
}

TEST(SweepOptions, FromEnvironmentReadsTheCapcheckVariables)
{
    ScopedEnv dir("CAPCHECK_CACHE_DIR", "/tmp/envcache");
    ScopedEnv cap("CAPCHECK_CACHE_MAX_BYTES", "4096");
    ScopedEnv sock("CAPCHECK_SERVER", "/tmp/env.sock");
    const SweepOptions opts = SweepOptions::fromEnvironment();
    EXPECT_EQ(opts.cacheDir, "/tmp/envcache");
    EXPECT_EQ(opts.cacheMaxBytes, 4096u);
    EXPECT_EQ(opts.serverSocket, "/tmp/env.sock");
}

TEST(SweepOptions, FromEnvironmentFallsBackToDefaults)
{
    ScopedEnv dir("CAPCHECK_CACHE_DIR", nullptr);
    ScopedEnv cap("CAPCHECK_CACHE_MAX_BYTES", nullptr);
    ScopedEnv sock("CAPCHECK_SERVER", nullptr);
    const SweepOptions opts = SweepOptions::fromEnvironment();
    EXPECT_TRUE(opts.cacheDir.empty());
    EXPECT_TRUE(opts.serverSocket.empty());
    EXPECT_EQ(opts.cacheMaxBytes, SweepOptions{}.cacheMaxBytes);
}

TEST(SweepOptions, SamplesFallBackToJsonDirWithoutTraceDir)
{
    const RunRequest req = sampleRequest();
    SweepOptions opts = SweepOptions{}.withJsonDir("out");
    opts.sampleInterval = 10;
    const obs::ObsOptions oo = harness::obsOptionsFor(opts, req);
    EXPECT_EQ(oo.samplesFile,
              "out/run-" + req.hashHex() + ".samples.json");
    EXPECT_TRUE(oo.traceFile.empty());
}

TEST(SweepOptions, NoArtefactsSelectedMeansNoPaths)
{
    const obs::ObsOptions oo =
        harness::obsOptionsFor(SweepOptions{}, sampleRequest());
    for (const harness::ObsSink &sink : harness::obsSinks())
        EXPECT_TRUE((oo.*sink.file).empty()) << sink.flag;
}

TEST(ObsSinks, EveryRowParsesNamesCreatesAndRoundTrips)
{
    ScopedEnv server("CAPCHECK_SERVER", nullptr);
    const TempDir tmp;
    const RunRequest req = sampleRequest();
    const std::string hex = req.hashHex();

    // The spellings that scripts, artefact readers and daemons built
    // from older trees rely on.
    const std::vector<std::array<const char *, 3>> names = {
        {"--trace-out", ".trace.json", "traceDir"},
        {"--sample-interval", ".samples.json", "sampleInterval"},
        {"--audit-log", ".audit.jsonl", "auditDir"},
        {"--flight-out", ".flights.json", "flightDir"},
        {"--latency-json", ".latency.json", "latencyDir"},
        {"--prof-out", ".prof.json", nullptr},
        {"--prof-folded", ".folded", nullptr},
    };
    ASSERT_EQ(harness::obsSinks().size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const harness::ObsSink &sink = harness::obsSinks()[i];
        EXPECT_STREQ(sink.flag, names[i][0]);
        EXPECT_STREQ(sink.suffix, names[i][1]);
        EXPECT_STREQ(sink.wireKey, names[i][2]);
        EXPECT_EQ(sink.daemonWrites, names[i][2] != nullptr);
    }

    for (const harness::ObsSink &sink : harness::obsSinks()) {
        SCOPED_TRACE(sink.flag);
        const std::string flag = sink.flag;
        const std::string value = flagValue(sink, tmp);

        // Both spellings land in the row's field.
        for (const bench::BenchOptions &cli :
             {parse({flag, value}), parse({flag + "=" + value})}) {
            if (sink.dir) {
                EXPECT_EQ(cli.sweep.*sink.dir, value);
            } else {
                EXPECT_EQ(cli.sweep.sampleInterval, 1000u);
            }
        }

        // Samples have no directory of their own: they follow the
        // trace, else the result JSON.
        std::vector<std::pair<std::vector<std::string>, std::string>>
            cases = {{{"--json-dir", tmp.str("json")},
                      sink.dir ? value : tmp.str("json")}};
        if (!sink.dir) {
            cases.push_back({{"--json-dir", tmp.str("json"),
                              "--trace-out", tmp.str("trace")},
                             tmp.str("trace")});
        }
        for (auto &[extra, dir] : cases) {
            std::vector<std::string> args = {"--topn", "7", flag, value};
            args.insert(args.end(), extra.begin(), extra.end());
            const SweepOptions opts = parse(args).sweep;
            EXPECT_EQ(harness::obsDir(opts, sink), dir);

            const obs::ObsOptions oo = harness::obsOptionsFor(opts, req);
            EXPECT_EQ(oo.*sink.file, dir + "/run-" + hex + sink.suffix);
            if (!sink.dir) {
                EXPECT_EQ(oo.sampleInterval, 1000u);
            }
            if (oo.flightRecording() || oo.profiling()) {
                EXPECT_EQ(oo.topN, 7u);
                EXPECT_EQ(oo.runLabel, req.label());
            }

            harness::createObsDirs(opts);
            EXPECT_TRUE(fs::is_directory(dir));

            // The daemon derives the same path from the submit
            // message, or none for a sink it does not write.
            const std::string frame =
                service::encodeSubmit(1, "sinks", opts, {req});
            if (sink.daemonWrites) {
                const std::string key =
                    std::string("\"") + sink.wireKey + "\"";
                EXPECT_NE(frame.find(key), std::string::npos) << frame;
            } else {
                EXPECT_EQ(frame.find(value), std::string::npos) << frame;
            }
            std::string err;
            const auto msg =
                service::submitFromJson(*json::parseJson(frame), &err);
            ASSERT_TRUE(msg.has_value()) << err;
            const obs::ObsOptions remote =
                harness::obsOptionsFor(msg->options, req);
            EXPECT_EQ(remote.*sink.file,
                      sink.daemonWrites ? oo.*sink.file : "");
            EXPECT_EQ(msg->options.topN, 7u);
        }
        fs::remove_all(tmp.path);
    }
}

TEST(ObsSinksDeathTest, ServerRefusesSinksTheDaemonDoesNotWrite)
{
    const TempDir tmp;
    for (const harness::ObsSink &sink : harness::obsSinks()) {
        SCOPED_TRACE(sink.flag);
        const std::string value = flagValue(sink, tmp);
        if (sink.daemonWrites) {
            // Accepted: parse() returning at all is the check.
            const SweepOptions opts =
                parse({"--server", "d.sock", sink.flag, value}).sweep;
            EXPECT_EQ(opts.serverSocket, "d.sock");
            continue;
        }
        EXPECT_EXIT(parse({"--server", "d.sock", sink.flag, value}),
                    ::testing::ExitedWithCode(2), sink.flag);
        ScopedEnv server("CAPCHECK_SERVER", "d.sock");
        EXPECT_EXIT(parse({sink.flag, value}),
                    ::testing::ExitedWithCode(2), sink.flag);
    }
}
