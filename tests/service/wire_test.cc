/**
 * @file
 * Tests for the capcheckd wire messages and the full-fidelity
 * request/result JSON encodings under them: a request round-tripped
 * through the protocol must re-hash to the same key (including cost
 * parameters and topology file), a result must compare equal field by
 * field, and the defensive decode paths (hash mismatch, missing
 * fields) must fail with precise errors.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "base/json.hh"
#include "base/json_value.hh"
#include "harness/result_json.hh"
#include "service/wire.hh"
#include "system/soc_config_builder.hh"

using namespace capcheck;
using namespace capcheck::service;
using harness::RunRequest;
using system::SocConfigBuilder;
using system::SystemMode;

namespace
{

RunRequest
sampleRequest(std::uint64_t seed = 1)
{
    return RunRequest::single("aes",
                              SocConfigBuilder()
                                  .mode(SystemMode::ccpuCaccel)
                                  .numInstances(2)
                                  .seed(seed)
                                  .build());
}

std::string
encodeRequest(const RunRequest &req)
{
    std::ostringstream os;
    json::JsonWriter w(os);
    harness::writeRequestWireJson(w, req);
    return os.str();
}

json::JsonValue
parsed(const std::string &text)
{
    auto v = json::parseJson(text);
    EXPECT_TRUE(v.has_value()) << text;
    return std::move(*v);
}

} // namespace

TEST(Wire, RequestRoundTripPreservesTheHash)
{
    const RunRequest req = sampleRequest();
    std::string err;
    const auto back =
        harness::requestFromWireJson(parsed(encodeRequest(req)), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->hash(), req.hash());
    EXPECT_TRUE(*back == req);
}

TEST(Wire, RequestRoundTripKeepsNonDefaultCosts)
{
    // Cost parameters feed the hash but are omitted from the
    // human-facing run JSON; the wire encoding must carry them.
    RunRequest req = sampleRequest();
    req.config.cpuCosts.missPenalty += 7;
    req.config.driverCosts.iommuMapPerPage += 3;
    std::string err;
    const auto back =
        harness::requestFromWireJson(parsed(encodeRequest(req)), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->config.cpuCosts.missPenalty,
              req.config.cpuCosts.missPenalty);
    EXPECT_EQ(back->config.driverCosts.iommuMapPerPage,
              req.config.driverCosts.iommuMapPerPage);
    EXPECT_EQ(back->hash(), req.hash());
}

TEST(Wire, MixedRequestRoundTrips)
{
    const RunRequest req =
        RunRequest::mixed({"aes", "backprop"},
                          SocConfigBuilder()
                              .mode(SystemMode::ccpuAccel)
                              .numInstances(2)
                              .build());
    std::string err;
    const auto back =
        harness::requestFromWireJson(parsed(encodeRequest(req)), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->benchmarks, req.benchmarks);
    EXPECT_EQ(back->hash(), req.hash());
}

TEST(Wire, RequestDecodeReportsMissingFields)
{
    std::string err;
    EXPECT_FALSE(harness::requestFromWireJson(
                     parsed("{\"benchmarks\": [\"aes\"]}"), &err)
                     .has_value());
    EXPECT_FALSE(err.empty());
}

TEST(Wire, ResultRoundTripComparesEqual)
{
    // A synthetic result with every field non-default, so a dropped
    // field cannot hide behind a zero.
    system::RunResult result;
    result.benchmark = "aes";
    result.mode = SystemMode::ccpuCaccel;
    result.numTasks = 3;
    result.totalCycles = 123456;
    result.driverAllocCycles = 1111;
    result.kernelCycles = 2222;
    result.driverDeallocCycles = 333;
    result.initCycles = 44;
    result.functionallyCorrect = true;
    result.exceptions = 5;
    result.dmaBeats = 6789;
    result.peakTableEntries = 17;
    result.statsText = "line one\nline two\n";
    result.statsJson = "{\n  \"stats\": {}\n}";

    std::ostringstream os;
    json::JsonWriter w(os);
    harness::writeResultWireJson(w, result);
    std::string err;
    const auto back =
        harness::resultFromWireJson(parsed(os.str()), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(*back, result);
}

TEST(Wire, SubmitRoundTripCarriesOptionsAndRequests)
{
    // The artefact directories are checked row by row in
    // ObsSinks.EveryRowParsesNamesCreatesAndRoundTrips.
    harness::SweepOptions so;
    so.jsonDir = "/tmp/out";
    so.topN = 4;
    so.cacheEnabled = false;
    so.traceId = "t-1";
    const std::vector<RunRequest> reqs = {sampleRequest(1),
                                          sampleRequest(2)};
    const std::string msg = encodeSubmit(7, "grid", so, reqs);

    std::string err;
    const auto back = submitFromJson(parsed(msg), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->batch, 7u);
    EXPECT_EQ(back->sweep, "grid");
    EXPECT_EQ(back->options.jsonDir, "/tmp/out");
    EXPECT_EQ(back->options.topN, 4u);
    EXPECT_FALSE(back->options.cacheEnabled);
    EXPECT_EQ(back->options.traceId, "t-1");
    ASSERT_EQ(back->requests.size(), 2u);
    EXPECT_EQ(back->requests[0].hash(), reqs[0].hash());
    EXPECT_EQ(back->requests[1].hash(), reqs[1].hash());
    // Result bodies always ride in result frames now; an older daemon
    // reads the missing key as true.
    EXPECT_EQ(msg.find("wantResultJson"), std::string::npos) << msg;
}

TEST(Wire, SubmitDecodesAnOlderClientsFrame)
{
    // A submit frame as clients sent it before the options became a
    // SweepOptions: same keys, plus the retired "wantResultJson".
    const std::string frame = R"({"type": "submit", "batch": 3,
        "sweep": "grid", "traceId": "old-client",
        "options": {"jsonDir": "/o", "traceDir": "/t",
                    "auditDir": "/a", "flightDir": "/f",
                    "latencyDir": "/l", "sampleInterval": 500,
                    "topN": 4, "noCache": true,
                    "wantResultJson": true},
        "requests": []})";
    std::string err;
    const auto msg = submitFromJson(parsed(frame), &err);
    ASSERT_TRUE(msg.has_value()) << err;
    EXPECT_EQ(msg->batch, 3u);
    EXPECT_EQ(msg->sweep, "grid");
    EXPECT_EQ(msg->options.traceId, "old-client");
    EXPECT_EQ(msg->options.jsonDir, "/o");
    EXPECT_EQ(msg->options.traceDir, "/t");
    EXPECT_EQ(msg->options.auditDir, "/a");
    EXPECT_EQ(msg->options.flightDir, "/f");
    EXPECT_EQ(msg->options.latencyDir, "/l");
    EXPECT_EQ(msg->options.sampleInterval, 500u);
    EXPECT_EQ(msg->options.topN, 4u);
    EXPECT_FALSE(msg->options.cacheEnabled);
    EXPECT_TRUE(msg->requests.empty());
}

TEST(Wire, SubmitRejectsAClientServerHashMismatch)
{
    // Tamper with a field after hashing: the server recomputes the
    // hash from decoded fields and must refuse to key a different
    // experiment under the client's claim.
    const std::string msg =
        encodeSubmit(1, "s", harness::SweepOptions{}, {sampleRequest()});
    std::string text = msg;
    const std::string needle = "\"numTasks\": 2";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos) << msg;
    text.replace(pos, needle.size(), "\"numTasks\": 3");

    std::string err;
    EXPECT_FALSE(submitFromJson(parsed(text), &err).has_value());
    EXPECT_NE(err.find("hash mismatch"), std::string::npos) << err;
}

TEST(Wire, PingAndPongCarryTheProtocolVersion)
{
    const auto ping = parsed(encodePing());
    EXPECT_EQ(messageType(ping), "ping");
    const auto pong = parsed(encodePong());
    EXPECT_EQ(messageType(pong), "pong");
    const json::JsonValue *proto = pong.get("protocol");
    ASSERT_NE(proto, nullptr);
    EXPECT_EQ(static_cast<unsigned>(proto->asNumber()),
              protocolVersion);
}

TEST(Wire, StatsRoundTrip)
{
    ServiceStats stats;
    stats.executed = 10;
    stats.cacheHits = 20;
    stats.jobs = 4;
    stats.queueDepth = 3;
    stats.activeClients = 2;
    stats.rejectedOverload = 1;
    stats.cache.memory.entries = 5;
    stats.cache.memory.bytes = 5000;
    stats.cache.memory.hits = 7;
    stats.cache.memory.lookups = 9;
    stats.cache.disk.entries = 6;
    stats.cache.disk.evictions = 2;
    stats.cache.diskPresent = true;

    const auto back = statsFromJson(parsed(encodeStats(stats)));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->executed, 10u);
    EXPECT_EQ(back->cacheHits, 20u);
    EXPECT_EQ(back->jobs, 4u);
    EXPECT_EQ(back->queueDepth, 3u);
    EXPECT_EQ(back->activeClients, 2u);
    EXPECT_EQ(back->rejectedOverload, 1u);
    EXPECT_EQ(back->cache.memory.entries, 5u);
    EXPECT_EQ(back->cache.memory.bytes, 5000u);
    EXPECT_EQ(back->cache.memory.hits, 7u);
    EXPECT_EQ(back->cache.memory.lookups, 9u);
    ASSERT_TRUE(back->cache.diskPresent);
    EXPECT_EQ(back->cache.disk.entries, 6u);
    EXPECT_EQ(back->cache.disk.evictions, 2u);
}

TEST(Wire, StatsOmitsTheDiskBlockWhenAbsent)
{
    ServiceStats stats;
    const std::string text = encodeStats(stats);
    EXPECT_EQ(text.find("diskCache"), std::string::npos);
    const auto back = statsFromJson(parsed(text));
    ASSERT_TRUE(back.has_value());
    EXPECT_FALSE(back->cache.diskPresent);
}

TEST(Wire, DoneRoundTripCarriesTheTaskCounts)
{
    DoneMessage done;
    done.batch = 7;
    done.executed = 100;
    done.cached = 8;
    done.failed = 1;
    done.jobs = 4;
    done.tasksPrepared = 16;
    done.tasksReused = 92;

    const auto back = doneFromJson(parsed(encodeDone(done)));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->batch, 7u);
    EXPECT_EQ(back->executed, 100u);
    EXPECT_EQ(back->cached, 8u);
    EXPECT_EQ(back->failed, 1u);
    EXPECT_EQ(back->jobs, 4u);
    EXPECT_EQ(back->tasksPrepared, 16u);
    EXPECT_EQ(back->tasksReused, 92u);
    EXPECT_FALSE(doneFromJson(parsed(encodePing())).has_value());
}

TEST(Wire, DoneDecodesAnOlderDaemonsFrame)
{
    // A done frame as daemons sent it before the task counts.
    const auto back = doneFromJson(
        parsed(R"({"type": "done", "batch": 3, "executed": 2, )"
               R"("cached": 1, "failed": 0, "jobs": 2})"));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->batch, 3u);
    EXPECT_EQ(back->executed, 2u);
    EXPECT_EQ(back->cached, 1u);
    EXPECT_EQ(back->jobs, 2u);
    EXPECT_EQ(back->tasksPrepared, 0u);
    EXPECT_EQ(back->tasksReused, 0u);
}

TEST(Wire, ErrorFramesCarryCodeBatchAndRetry)
{
    const auto v = parsed(
        encodeError(errOverloaded, "queue full", 42, 250));
    EXPECT_EQ(messageType(v), "error");
    EXPECT_EQ(v.get("code")->asString(), errOverloaded);
    EXPECT_EQ(v.get("message")->asString(), "queue full");
    EXPECT_EQ(v.get("batch")->asNumber(), 42.0);
    EXPECT_EQ(v.get("retryAfterMillis")->asNumber(), 250.0);

    const auto noBatch =
        parsed(encodeError(errBadFrame, "x", std::nullopt));
    EXPECT_EQ(noBatch.get("batch"), nullptr);
    EXPECT_EQ(noBatch.get("retryAfterMillis"), nullptr);
}

TEST(Wire, ResultFrameEmbedsTheRunJsonBodyVerbatim)
{
    const RunRequest req = sampleRequest();
    system::RunResult result;
    result.benchmark = "aes";
    result.statsJson = "{\n  \"a\": 1\n}";
    const std::string body = harness::runJson(req, result);

    const auto v = parsed(encodeResult(
        1, 0, req.hash(), RunStatus::executed, &result, &body, 1.5,
        std::string()));
    EXPECT_EQ(v.get("status")->asString(), "executed");
    EXPECT_EQ(v.get("hash")->asString(), req.hashHex());
    ASSERT_NE(v.get("resultJson"), nullptr);
    // The embedded body must survive JSON escaping byte-for-byte:
    // it is what the client writes to run-<hash>.json.
    EXPECT_EQ(v.get("resultJson")->asString(), body);
    std::string err;
    const auto back =
        harness::resultFromWireJson(*v.get("result"), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(*back, result);
}

TEST(Wire, RunStatusNamesAreStable)
{
    EXPECT_STREQ(runStatusName(RunStatus::executed), "executed");
    EXPECT_STREQ(runStatusName(RunStatus::cached), "cached");
    EXPECT_STREQ(runStatusName(RunStatus::failed), "failed");
}
