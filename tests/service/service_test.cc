/**
 * @file
 * Integration tests for the SweepService layer: the in-process
 * backend's streaming and cache attribution, a live capcheckd Server
 * driven through RemoteService over a temp socket (byte-identical
 * artefacts, restart-from-disk-cache), and the protocol's defensive
 * paths — garbage framing, oversize batches, overload rejection —
 * exercised against a real daemon.
 */

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/json.hh"
#include "harness/result_json.hh"
#include "harness/sweep_runner.hh"
#include "service/frame.hh"
#include "service/inprocess.hh"
#include "service/remote.hh"
#include "service/server.hh"
#include "service/socket.hh"
#include "service/sweep_service.hh"
#include "service/wire.hh"
#include "system/soc_config_builder.hh"

#include "../harness/fig11_batch.hh"

using namespace capcheck;
using namespace capcheck::service;
using harness::RunRequest;
using harness::SweepOptions;
using system::SocConfigBuilder;
using system::SystemMode;

namespace
{

namespace fs = std::filesystem;

/** Scratch directory under /tmp; also keeps socket paths well inside
 *  the sun_path limit. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        path = fs::temp_directory_path() /
               ("capcheck_svc_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter++));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string str(const std::string &leaf) const
    {
        return (path / leaf).string();
    }

    static inline int counter = 0;
};

std::vector<RunRequest>
sampleBatch()
{
    std::vector<RunRequest> requests;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        requests.push_back(
            RunRequest::single("aes", SocConfigBuilder()
                                          .mode(SystemMode::ccpuAccel)
                                          .numInstances(2)
                                          .seed(seed)
                                          .build()));
        requests.push_back(
            RunRequest::single("aes", SocConfigBuilder()
                                          .mode(SystemMode::ccpuCaccel)
                                          .numInstances(2)
                                          .seed(seed)
                                          .build()));
    }
    return requests;
}

/** A live Server on a socket under @p dir, torn down on scope exit. */
struct Daemon
{
    Server server;

    explicit Daemon(const TempDir &dir, unsigned jobs = 2,
                    std::string cache_dir = {},
                    std::size_t max_batch = 4096,
                    std::size_t max_inflight = 512,
                    std::size_t max_queue = 1024)
        : server([&] {
              ServerOptions o;
              o.socketPath = dir.str("d.sock");
              o.jobs = jobs;
              o.cacheDir = std::move(cache_dir);
              o.maxBatchRequests = max_batch;
              o.maxInflightPerClient = max_inflight;
              o.maxQueue = max_queue;
              return o;
          }())
    {
        server.start();
    }
    ~Daemon() { server.stop(); }
};

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** run-<hash>.json leaf → bytes, for artefact byte-compares. */
std::map<std::string, std::string>
runJsonFiles(const fs::path &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &e : fs::directory_iterator(dir)) {
        const std::string leaf = e.path().filename().string();
        if (leaf.rfind("run-", 0) == 0 &&
            leaf.find(".manifest") == std::string::npos)
            files[leaf] = slurp(e.path());
    }
    return files;
}

/** @p v without its "profile" and "wallMillis" members, at any depth:
 *  the part of a sweep manifest both backends must write alike. */
json::JsonValue
withoutWallClock(const json::JsonValue &v)
{
    if (v.isArray()) {
        std::vector<json::JsonValue> elems;
        for (const json::JsonValue &e : v.elements())
            elems.push_back(withoutWallClock(e));
        return json::JsonValue::makeArray(std::move(elems));
    }
    if (!v.isObject())
        return v;
    std::vector<json::JsonValue::Member> members;
    for (const json::JsonValue::Member &m : v.members()) {
        if (m.first != "profile" && m.first != "wallMillis")
            members.emplace_back(m.first, withoutWallClock(m.second));
    }
    return json::JsonValue::makeObject(std::move(members));
}

json::JsonValue
parseFile(const fs::path &p)
{
    auto v = json::parseJson(slurp(p));
    EXPECT_TRUE(v.has_value()) << p;
    return v.value_or(json::JsonValue{});
}

/** A raw protocol peer for the malformed/defensive-path tests. */
struct RawClient
{
    Fd fd;

    explicit RawClient(const Server &server)
    {
        std::string err;
        fd = connectUnix(server.socketPath(), &err);
        EXPECT_TRUE(fd.valid()) << err;
    }

    json::JsonValue
    recv()
    {
        const auto payload = recvFrame(fd.get());
        EXPECT_TRUE(payload.has_value()) << "peer closed";
        auto v = json::parseJson(payload.value_or("null"));
        EXPECT_TRUE(v.has_value());
        return std::move(*v);
    }
};

} // namespace

TEST(Service, FactorySelectsTheBackendFromTheOptions)
{
    // Empty serverSocket → in-process; a live daemon's socket →
    // remote. Both satisfy ping().
    auto local = makeService(SweepOptions{});
    ASSERT_NE(local, nullptr);
    EXPECT_NE(dynamic_cast<InProcessService *>(local.get()), nullptr);
    EXPECT_TRUE(local->ping());

    TempDir dir;
    Daemon daemon(dir);
    auto remote = makeService(
        SweepOptions{}.withServerSocket(daemon.server.socketPath()));
    ASSERT_NE(remote, nullptr);
    EXPECT_NE(dynamic_cast<RemoteService *>(remote.get()), nullptr);
    EXPECT_TRUE(remote->ping());
}

TEST(Service, ConnectingToNothingFailsFast)
{
    TempDir dir;
    try {
        RemoteService svc(
            SweepOptions{}.withServerSocket(dir.str("absent.sock")));
        FAIL() << "connected to a socket nobody listens on";
    } catch (const ServiceError &e) {
        EXPECT_EQ(e.code(), errConnect);
    }
}

TEST(Service, InProcessStreamsEveryRequestAndAttributesCacheHits)
{
    auto batch = sampleBatch();
    batch.push_back(batch.front()); // duplicate → cached

    InProcessService svc(SweepOptions{}.withJobs(2));
    std::vector<StreamItem> seen;
    const auto outcomes =
        svc.submit(batch, "stream", [&](const StreamItem &item) {
            ASSERT_NE(item.result, nullptr);
            seen.push_back(item);
            seen.back().result = nullptr; // pointer dies with the call
        });

    ASSERT_EQ(outcomes.size(), batch.size());
    ASSERT_EQ(seen.size(), batch.size());
    std::set<std::size_t> indices;
    for (const auto &item : seen)
        indices.insert(item.index);
    EXPECT_EQ(indices.size(), batch.size()) << "an index streamed "
                                               "twice or not at all";

    // The duplicate is a cache hit with the first occurrence's result.
    EXPECT_TRUE(outcomes.back().cacheHit);
    EXPECT_FALSE(outcomes.front().cacheHit);
    EXPECT_EQ(outcomes.back().result, outcomes.front().result);

    const auto stats = svc.stats();
    EXPECT_EQ(stats.executed, batch.size() - 1);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.jobs, 2u);
}

TEST(Service, RemoteMatchesInProcessByteForByte)
{
    TempDir dir;
    const auto batch = sampleBatch();

    InProcessService local(
        SweepOptions{}.withJobs(2).withJsonDir(dir.str("local")));
    const auto localOut = local.submit(batch, "grid");

    Daemon daemon(dir);
    RemoteService remote(
        SweepOptions{}
            .withJobs(2)
            .withJsonDir(dir.str("remote"))
            .withServerSocket(daemon.server.socketPath()));
    std::vector<StreamItem> seen;
    const auto remoteOut =
        remote.submit(batch, "grid", [&](const StreamItem &item) {
            seen.push_back(item);
            seen.back().result = nullptr;
            seen.back().resultJson = nullptr;
        });

    // Same outcomes, in input order, comparing every result field.
    ASSERT_EQ(remoteOut.size(), localOut.size());
    for (std::size_t i = 0; i < localOut.size(); ++i) {
        EXPECT_EQ(remoteOut[i].result, localOut[i].result) << i;
        EXPECT_EQ(remoteOut[i].cacheHit, localOut[i].cacheHit) << i;
    }
    EXPECT_EQ(seen.size(), batch.size());

    // Byte-identical run-<hash>.json artefacts.
    const auto localFiles = runJsonFiles(dir.str("local"));
    const auto remoteFiles = runJsonFiles(dir.str("remote"));
    ASSERT_EQ(localFiles.size(), batch.size());
    EXPECT_EQ(remoteFiles, localFiles);

    // The manifests agree outside the wall-clock fields, and the
    // remote profile counts the daemon's task preparations.
    const json::JsonValue localManifest =
        parseFile(dir.str("local/grid.manifest.json"));
    const json::JsonValue remoteManifest =
        parseFile(dir.str("remote/grid.manifest.json"));
    EXPECT_EQ(json::jsonValueToText(withoutWallClock(remoteManifest)),
              json::jsonValueToText(withoutWallClock(localManifest)));
    for (const char *field : {"profile.executed", "profile.cacheHits",
                              "profile.tasksPrepared",
                              "profile.tasksReused"}) {
        ASSERT_NE(remoteManifest.at(field), nullptr) << field;
        EXPECT_EQ(remoteManifest.at(field)->asNumber(),
                  localManifest.at(field)->asNumber())
            << field;
    }
    EXPECT_GT(remoteManifest.at("profile.tasksPrepared")->asNumber(), 0);
    EXPECT_GT(remoteManifest.at("profile.runWall.maxMillis")->asNumber(),
              0);

    const auto stats = remote.stats();
    EXPECT_EQ(stats.executed, batch.size());
    EXPECT_EQ(stats.activeClients, 1u);
}

TEST(Service, DaemonPreparesEachDistinctTaskOncePerBatch)
{
    const auto batch = harness::fig11Batch();
    SweepOptions cold;
    cold.jobs = 2;
    cold.cacheEnabled = false;
    const auto local = harness::SweepRunner(cold).run(batch);

    TempDir dir;
    Daemon daemon(dir, 2);
    std::ostringstream progress;
    SweepOptions remoteOpts =
        SweepOptions{}
            .withJsonDir(dir.str("json"))
            .withServerSocket(daemon.server.socketPath());
    remoteOpts.progress = &progress;
    RemoteService remote(remoteOpts);
    const auto remoteOut = remote.submit(batch, "fig11");

    ASSERT_EQ(remoteOut.size(), local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
        EXPECT_EQ(harness::runJson(batch[i], remoteOut[i].result),
                  harness::runJson(batch[i], local[i].result))
            << batch[i].label();
        EXPECT_EQ(remoteOut[i].result.statsText, local[i].result.statsText)
            << batch[i].label();
    }

    // 108 preparations, 16 distinct (fig11_batch.hh).
    const obs::MetricsSnapshot m = daemon.server.stats().metrics;
    EXPECT_EQ(m.counterValue("tasks.prepared"), 16u);
    EXPECT_EQ(m.counterValue("tasks.reused"), 92u);

    // The done frame carries the batch's counts to the client's
    // manifest and summary line, as in-process.
    const json::JsonValue manifest =
        parseFile(dir.str("json/fig11.manifest.json"));
    ASSERT_NE(manifest.at("profile.tasksPrepared"), nullptr);
    EXPECT_EQ(manifest.at("profile.tasksPrepared")->asNumber(), 16);
    EXPECT_EQ(manifest.at("profile.tasksReused")->asNumber(), 92);
    EXPECT_NE(progress.str().find("tasks=16 prepared/92 reused"),
              std::string::npos)
        << progress.str();
}

TEST(Service, MixedCachedAndFreshBatchesAgreeAcrossClients)
{
    TempDir dir;
    Daemon daemon(dir);
    const auto batch = sampleBatch();
    const auto opts = SweepOptions{}.withServerSocket(
        daemon.server.socketPath());

    RemoteService first(opts);
    const auto a = first.submit(batch, "warm");

    // A second client: half the old batch plus new seeds. The old
    // half must come back cached, with identical results.
    auto mixed = std::vector<RunRequest>(batch.begin(),
                                         batch.begin() + 2);
    mixed.push_back(
        RunRequest::single("aes", SocConfigBuilder()
                                      .mode(SystemMode::ccpuCaccel)
                                      .numInstances(2)
                                      .seed(99)
                                      .build()));
    RemoteService second(opts);
    std::vector<StreamItem> seen;
    const auto b =
        second.submit(mixed, "mixed", [&](const StreamItem &item) {
            seen.push_back(item);
            seen.back().result = nullptr;
            seen.back().resultJson = nullptr;
        });

    ASSERT_EQ(b.size(), 3u);
    EXPECT_TRUE(b[0].cacheHit);
    EXPECT_TRUE(b[1].cacheHit);
    EXPECT_FALSE(b[2].cacheHit);
    EXPECT_EQ(b[0].result, a[0].result);
    EXPECT_EQ(b[1].result, a[1].result);
    for (const auto &item : seen) {
        EXPECT_EQ(item.status == RunStatus::cached,
                  b[item.index].cacheHit);
    }

    const auto stats = second.stats();
    EXPECT_EQ(stats.executed, batch.size() + 1);
    EXPECT_EQ(stats.cacheHits, 2u);
}

TEST(Service, RestartedDaemonServesTheBatchFromTheDiskCache)
{
    TempDir dir;
    const auto batch = sampleBatch();
    std::vector<harness::RunOutcome> warm;
    {
        Daemon daemon(dir, 2, dir.str("cache"));
        RemoteService svc(SweepOptions{}.withServerSocket(
            daemon.server.socketPath()));
        warm = svc.submit(batch, "warm");
        EXPECT_EQ(svc.stats().executed, batch.size());
    }
    // A fresh daemon process on the same cache dir: every request is
    // a disk hit, nothing simulates again.
    Daemon daemon(dir, 2, dir.str("cache"));
    RemoteService svc(
        SweepOptions{}.withServerSocket(daemon.server.socketPath()));
    std::vector<StreamItem> seen;
    const auto cold =
        svc.submit(batch, "cold", [&](const StreamItem &item) {
            seen.push_back(item);
            seen.back().result = nullptr;
            seen.back().resultJson = nullptr;
        });

    for (const auto &item : seen)
        EXPECT_EQ(item.status, RunStatus::cached);
    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_EQ(cold[i].result, warm[i].result) << i;
        EXPECT_TRUE(cold[i].cacheHit) << i;
    }
    const auto stats = svc.stats();
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.cacheHits, batch.size());
    ASSERT_TRUE(stats.cache.diskPresent);
    EXPECT_EQ(stats.cache.disk.entries, batch.size());
    EXPECT_GE(stats.cache.disk.hits, batch.size());
}

TEST(Service, GarbageMagicGetsAStructuredErrorThenDisconnect)
{
    TempDir dir;
    Daemon daemon(dir);
    RawClient raw(daemon.server);
    const char garbage[8] = {'H', 'T', 'T', 'P', 0, 0, 0, 0};
    ASSERT_TRUE(sendAll(raw.fd.get(), garbage, sizeof(garbage)));

    const auto v = raw.recv();
    EXPECT_EQ(messageType(v), "error");
    EXPECT_EQ(v.get("code")->asString(), errBadFrame);
    // The daemon hangs up on framing corruption...
    EXPECT_FALSE(recvFrame(raw.fd.get()).has_value());
    // ...but keeps serving everyone else.
    RawClient next(daemon.server);
    sendFrame(next.fd.get(), encodePing());
    EXPECT_EQ(messageType(next.recv()), "pong");
}

TEST(Service, UnparseableJsonIsBadRequestNotFatal)
{
    TempDir dir;
    Daemon daemon(dir);
    RawClient raw(daemon.server);
    sendFrame(raw.fd.get(), "this is not json");
    const auto v = raw.recv();
    EXPECT_EQ(messageType(v), "error");
    EXPECT_EQ(v.get("code")->asString(), errBadRequest);
    // Same connection still works: framing was intact.
    sendFrame(raw.fd.get(), encodePing());
    EXPECT_EQ(messageType(raw.recv()), "pong");
}

TEST(Service, OversizeBatchIsRejectedBeforeAdmission)
{
    TempDir dir;
    Daemon daemon(dir, 1, {}, /*max_batch=*/1);
    RawClient raw(daemon.server);
    sendFrame(raw.fd.get(),
              encodeSubmit(5, "big", SweepOptions{}, sampleBatch()));
    const auto v = raw.recv();
    EXPECT_EQ(messageType(v), "error");
    EXPECT_EQ(v.get("code")->asString(), errOversizeBatch);
    EXPECT_EQ(v.get("batch")->asNumber(), 5.0);
    EXPECT_EQ(daemon.server.stats().executed, 0u);
}

TEST(Service, OverloadRejectionIsAllOrNothingAndRetryable)
{
    TempDir dir;
    // In-flight cap of one: any batch of two is rejected atomically,
    // whatever the worker timing.
    Daemon daemon(dir, 1, {}, 4096, /*max_inflight=*/1);
    RawClient raw(daemon.server);
    sendFrame(raw.fd.get(),
              encodeSubmit(9, "burst", SweepOptions{},
                           sampleBatch()));
    const auto v = raw.recv();
    EXPECT_EQ(messageType(v), "error");
    EXPECT_EQ(v.get("code")->asString(), errOverloaded);
    EXPECT_EQ(v.get("batch")->asNumber(), 9.0);
    ASSERT_NE(v.get("retryAfterMillis"), nullptr);
    EXPECT_GT(v.get("retryAfterMillis")->asNumber(), 0.0);

    const auto stats = daemon.server.stats();
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.rejectedOverload, 1u);

    // A batch within the cap on the same connection still runs.
    const std::vector<RunRequest> one = {sampleBatch().front()};
    sendFrame(raw.fd.get(),
              encodeSubmit(10, "single", SweepOptions{}, one));
    std::vector<std::string> types;
    while (true) {
        const auto frame = raw.recv();
        types.push_back(messageType(frame));
        if (types.back() != "result")
            break;
    }
    ASSERT_EQ(types.size(), 2u);
    EXPECT_EQ(types[0], "result");
    EXPECT_EQ(types[1], "done");
}

TEST(Service, StatsFrameReportsTheDaemonConfiguration)
{
    TempDir dir;
    Daemon daemon(dir, 3, dir.str("cache"));
    RemoteService svc(
        SweepOptions{}.withServerSocket(daemon.server.socketPath()));
    const auto stats = svc.stats();
    EXPECT_EQ(stats.jobs, 3u);
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.activeClients, 1u);
    EXPECT_TRUE(stats.cache.diskPresent);
    EXPECT_EQ(stats.cache.disk.entries, 0u);
}
