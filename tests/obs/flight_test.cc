/**
 * @file
 * Flight recorder tests: per-hop attribution must telescope exactly to
 * the end-to-end latency on every path through the platform (allowed
 * and denied, cache hit and miss, Fine and Coarse provenance), the
 * top-N table must keep the slowest flights deterministically, and the
 * artefact writers must produce parseable JSON with stable shape.
 */

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/json.hh"
#include "base/json_value.hh"
#include "capchecker/capchecker.hh"
#include "harness/run_request.hh"
#include "obs/flight.hh"
#include "sim/eventq.hh"
#include "system/soc_config_builder.hh"

using namespace capcheck;
using namespace capcheck::obs;
using harness::RunRequest;
using system::SocConfigBuilder;
using system::SystemMode;

namespace fs = std::filesystem;

namespace
{

MemRequest
request(PortId port, std::uint64_t id, Addr addr = 0x1000)
{
    MemRequest req;
    req.cmd = MemCmd::read;
    req.addr = addr;
    req.size = 8;
    req.srcPort = port;
    req.task = port;
    req.id = id;
    return req;
}

MemResponse
response(PortId port, std::uint64_t id, bool ok = true)
{
    MemResponse resp;
    resp.id = id;
    resp.srcPort = port;
    resp.ok = ok;
    return resp;
}

/** @p resp, due on the current cycle (delivered in real time). */
MemResponse
dueNow(const EventQueue &eq, MemResponse resp)
{
    resp.due = eq.curCycle();
    return resp;
}

/** Run @p fn at absolute cycle @p when. The queue does not own its
 *  events, so they live here until the test binary exits. */
void
at(EventQueue &eq, Cycles when, std::function<void()> fn)
{
    static std::vector<std::unique_ptr<LambdaEvent>> events;
    events.push_back(std::make_unique<LambdaEvent>(std::move(fn)));
    eq.schedule(events.back().get(), when);
}

std::string
slurp(const fs::path &file)
{
    std::ifstream is(file);
    std::stringstream body;
    body << is.rdbuf();
    return body.str();
}

} // namespace

TEST(FlightRecorder, AttributesEveryCycleOfAnAllowedFlight)
{
    EventQueue eq;
    FlightRecorder rec(eq, 10, "unit");

    const auto req = request(0, 0);
    at(eq, 10, [&] { rec.onIssue(req, eq.curCycle()); });
    at(eq, 13, [&] { rec.onGrant(req); });
    at(eq, 13, [&] { rec.onCheck(req, true, 13, 15); });
    at(eq, 15, [&] { rec.onMemAccept(req, eq.curCycle()); });
    at(eq, 45, [&] { rec.onRespond(dueNow(eq, response(0, 0))); });
    eq.run();

    ASSERT_EQ(rec.completedFlights(), 1u);
    const auto flights = rec.slowestFlights();
    ASSERT_EQ(flights.size(), 1u);
    const FlightRecord &f = flights.front();
    EXPECT_EQ(f.hopXbar(), 3u);
    EXPECT_EQ(f.hopCheck(), 2u);
    EXPECT_EQ(f.hopDrain(), 0u);
    EXPECT_EQ(f.hopMem(), 30u);
    EXPECT_EQ(f.endToEnd(), 35u);
    EXPECT_EQ(f.hopXbar() + f.hopCheck() + f.hopDrain() + f.hopMem(),
              f.endToEnd());
    EXPECT_FALSE(f.denied);
}

TEST(FlightRecorder, DeniedFlightsNeverTouchMemory)
{
    EventQueue eq;
    FlightRecorder rec(eq, 10, "unit");

    const auto req = request(2, 7);
    at(eq, 5, [&] { rec.onIssue(req, eq.curCycle()); });
    at(eq, 6, [&] { rec.onGrant(req); });
    at(eq, 6, [&] { rec.onCheck(req, false, 6, 7); });
    at(eq, 7, [&] {
        rec.onRespond(dueNow(eq, response(2, 7, /*ok=*/false)));
    });
    eq.run();

    const auto flights = rec.slowestFlights();
    ASSERT_EQ(flights.size(), 1u);
    const FlightRecord &f = flights.front();
    EXPECT_TRUE(f.denied);
    EXPECT_EQ(f.hopMem(), 0u);
    EXPECT_EQ(f.hopXbar() + f.hopCheck() + f.hopDrain() + f.hopMem(),
              f.endToEnd());
}

TEST(FlightRecorder, CacheOutcomeCorrelatesWithTheNextCheck)
{
    EventQueue eq;
    FlightRecorder rec(eq, 10, "unit");

    const auto miss_req = request(0, 0);
    at(eq, 0, [&] { rec.onIssue(miss_req, eq.curCycle()); });
    at(eq, 1, [&] {
        rec.onGrant(miss_req);
        rec.onCacheMiss();
        rec.onCheck(miss_req, true, 1, 61);
    });
    at(eq, 61, [&] { rec.onMemAccept(miss_req, eq.curCycle()); });
    at(eq, 91, [&] { rec.onRespond(dueNow(eq, response(0, 0))); });

    const auto hit_req = request(0, 1);
    at(eq, 92, [&] { rec.onIssue(hit_req, eq.curCycle()); });
    at(eq, 93, [&] {
        rec.onGrant(hit_req);
        rec.onCacheHit();
        rec.onCheck(hit_req, true, 93, 94);
    });
    at(eq, 94, [&] { rec.onMemAccept(hit_req, eq.curCycle()); });
    at(eq, 124, [&] { rec.onRespond(dueNow(eq, response(0, 1))); });
    eq.run();

    const auto flights = rec.slowestFlights();
    ASSERT_EQ(flights.size(), 2u);
    // Slowest first: the miss walked the table for 60 cycles.
    EXPECT_EQ(flights[0].cache, FlightRecord::CacheOutcome::miss);
    EXPECT_EQ(flights[0].hopCheck(), 60u);
    EXPECT_EQ(flights[1].cache, FlightRecord::CacheOutcome::hit);
    EXPECT_EQ(flights[1].hopCheck(), 1u);
}

TEST(FlightRecorder, PassThroughStallOverwritesTheCheckTimestamps)
{
    EventQueue eq;
    FlightRecorder rec(eq, 10, "unit");

    // A zero-latency pass-through check re-fires its timing probe each
    // cycle the memory controller rejects the beat, and the memory
    // acceptance can land before the xbar's grant probe in the same
    // cycle. The last check attempt must win and the hop sum must
    // still telescope.
    const auto req = request(1, 3);
    at(eq, 0, [&] { rec.onIssue(req, eq.curCycle()); });
    at(eq, 2, [&] { rec.onCheck(req, true, 2, 2); });
    at(eq, 3, [&] {
        rec.onCheck(req, true, 3, 3);
        rec.onMemAccept(req, eq.curCycle());
        rec.onGrant(req);
    });
    at(eq, 33, [&] { rec.onRespond(dueNow(eq, response(1, 3))); });
    eq.run();

    const auto flights = rec.slowestFlights();
    ASSERT_EQ(flights.size(), 1u);
    const FlightRecord &f = flights.front();
    EXPECT_EQ(f.checkStart, 3u);
    EXPECT_EQ(f.hopXbar(), 3u);
    EXPECT_EQ(f.hopCheck(), 0u);
    EXPECT_EQ(f.hopMem(), 30u);
    EXPECT_EQ(f.hopXbar() + f.hopCheck() + f.hopDrain() + f.hopMem(),
              f.endToEnd());
}

TEST(FlightRecorder, CascadedHopsPartitionThePreCheckWait)
{
    EventQueue eq;
    FlightRecorder rec(eq, 10, "unit");

    // Two crossbar levels before a shared check stage: the beat waits
    // 2 cycles in the leaf and 3 in the root, each its own
    // (offer, grant) pair, and the pairs sum into hopXbar.
    const auto req = request(0, 0);
    at(eq, 10, [&] {
        rec.onIssue(req, eq.curCycle());
        rec.onOffer(req, eq.curCycle()); // leaf slot entry, same frame as the issue
    });
    at(eq, 12, [&] {
        rec.onGrant(req); // leaf arbitration win...
        rec.onOffer(req, eq.curCycle()); // ...lands the beat in the root's slot
    });
    at(eq, 15, [&] {
        rec.onGrant(req);
        rec.onCheck(req, true, 15, 17);
    });
    at(eq, 17, [&] { rec.onMemAccept(req, eq.curCycle()); });
    at(eq, 47, [&] { rec.onRespond(dueNow(eq, response(0, 0))); });
    eq.run();

    const auto flights = rec.slowestFlights();
    ASSERT_EQ(flights.size(), 1u);
    const FlightRecord &f = flights.front();
    ASSERT_EQ(f.xbarHops.size(), 2u);
    EXPECT_EQ(f.xbarHops[0].offer, 10u);
    EXPECT_EQ(f.xbarHops[0].grant, 12u);
    EXPECT_EQ(f.xbarHops[1].offer, 12u);
    EXPECT_EQ(f.xbarHops[1].grant, 15u);
    EXPECT_EQ(f.hopXbar(), 5u);
    EXPECT_EQ(f.hopCheck(), 2u);
    EXPECT_EQ(f.hopDrain(), 0u);
    EXPECT_EQ(f.hopMem(), 30u);
    EXPECT_EQ(f.endToEnd(), 37u);
    EXPECT_EQ(f.hopXbar() + f.hopCheck() + f.hopDrain() + f.hopMem(),
              f.endToEnd());
}

TEST(FlightRecorder, PostCheckHopBoundsTheDrainWindow)
{
    EventQueue eq;
    FlightRecorder rec(eq, 10, "unit");

    // A banked tree checks at the leaf, then crosses the root: the
    // drain window runs from the verdict to the first post-check
    // offer, and the root wait is charged to hopXbar, not drain.
    const auto req = request(1, 5);
    at(eq, 0, [&] {
        rec.onIssue(req, eq.curCycle());
        rec.onOffer(req, eq.curCycle());
    });
    at(eq, 2, [&] {
        rec.onGrant(req);
        rec.onCheck(req, true, 2, 4);
    });
    at(eq, 6, [&] { rec.onOffer(req, eq.curCycle()); }); // left the stage at 6
    at(eq, 9, [&] {
        rec.onGrant(req);
        rec.onMemAccept(req, eq.curCycle());
    });
    at(eq, 39, [&] { rec.onRespond(dueNow(eq, response(1, 5))); });
    eq.run();

    const auto flights = rec.slowestFlights();
    ASSERT_EQ(flights.size(), 1u);
    const FlightRecord &f = flights.front();
    ASSERT_EQ(f.xbarHops.size(), 2u);
    EXPECT_EQ(f.hopXbar(), 5u);  // (2-0) + (9-6)
    EXPECT_EQ(f.hopCheck(), 2u); // 2..4
    EXPECT_EQ(f.hopDrain(), 2u); // 4..6, verdict to the root offer
    EXPECT_EQ(f.hopMem(), 30u);
    EXPECT_EQ(f.endToEnd(), 39u);
    EXPECT_EQ(f.hopXbar() + f.hopCheck() + f.hopDrain() + f.hopMem(),
              f.endToEnd());
}

TEST(FlightRecorder, DeniedMultiHopFlightStillTelescopes)
{
    EventQueue eq;
    FlightRecorder rec(eq, 10, "unit");

    const auto req = request(2, 9);
    at(eq, 0, [&] {
        rec.onIssue(req, eq.curCycle());
        rec.onOffer(req, eq.curCycle());
    });
    at(eq, 2, [&] {
        rec.onGrant(req);
        rec.onOffer(req, eq.curCycle());
    });
    at(eq, 5, [&] {
        rec.onGrant(req);
        rec.onCheck(req, false, 5, 6);
    });
    at(eq, 6, [&] {
        rec.onRespond(dueNow(eq, response(2, 9, /*ok=*/false)));
    });
    eq.run();

    const auto flights = rec.slowestFlights();
    ASSERT_EQ(flights.size(), 1u);
    const FlightRecord &f = flights.front();
    EXPECT_TRUE(f.denied);
    ASSERT_EQ(f.xbarHops.size(), 2u);
    EXPECT_EQ(f.hopXbar(), 5u);
    EXPECT_EQ(f.hopCheck(), 1u);
    EXPECT_EQ(f.hopDrain(), 0u);
    EXPECT_EQ(f.hopMem(), 0u);
    EXPECT_EQ(f.hopXbar() + f.hopCheck() + f.hopDrain() + f.hopMem(),
              f.endToEnd());
}

TEST(FlightRecorder, XbarHopsAppearInTheArtefactOnlyForMultiHopTrees)
{
    const fs::path dir =
        fs::temp_directory_path() / "capcheck_flight_hops";
    fs::create_directories(dir);
    const fs::path flights_file = dir / "hops.flights.json";

    EventQueue eq;
    FlightRecorder rec(eq, 10, "unit");

    // Flight 0: two-level path (slower, sorts first).
    const auto multi = request(0, 0);
    at(eq, 0, [&] {
        rec.onIssue(multi, eq.curCycle());
        rec.onOffer(multi, eq.curCycle());
    });
    at(eq, 2, [&] {
        rec.onGrant(multi);
        rec.onOffer(multi, eq.curCycle());
    });
    at(eq, 5, [&] {
        rec.onGrant(multi);
        rec.onCheck(multi, true, 5, 6);
    });
    at(eq, 6, [&] { rec.onMemAccept(multi, eq.curCycle()); });
    at(eq, 46, [&] { rec.onRespond(dueNow(eq, response(0, 0))); });

    // Flight 1: the flat single-hop paper shape.
    const auto flat = request(0, 1);
    at(eq, 100, [&] {
        rec.onIssue(flat, eq.curCycle());
        rec.onOffer(flat, eq.curCycle());
    });
    at(eq, 101, [&] {
        rec.onGrant(flat);
        rec.onCheck(flat, true, 101, 102);
    });
    at(eq, 102, [&] { rec.onMemAccept(flat, eq.curCycle()); });
    at(eq, 110, [&] { rec.onRespond(dueNow(eq, response(0, 1))); });
    eq.run();

    rec.writeFlightsFile(flights_file.string());
    const auto doc = json::parseJson(slurp(flights_file));
    fs::remove_all(dir);
    ASSERT_TRUE(doc.has_value());
    const json::JsonValue *table = doc->at("flights");
    ASSERT_NE(table, nullptr);
    ASSERT_EQ(table->elements().size(), 2u);

    // Slowest first: the cascaded flight carries the per-level pairs.
    const json::JsonValue &cascaded = table->elements()[0];
    const json::JsonValue *hops = cascaded.at("xbarHops");
    ASSERT_NE(hops, nullptr);
    ASSERT_EQ(hops->elements().size(), 2u);
    EXPECT_EQ(hops->elements()[0].at("offer")->asNumber(), 0.0);
    EXPECT_EQ(hops->elements()[0].at("grant")->asNumber(), 2.0);
    EXPECT_EQ(hops->elements()[1].at("offer")->asNumber(), 2.0);
    EXPECT_EQ(hops->elements()[1].at("grant")->asNumber(), 5.0);

    // The flat flight's record keeps the original byte shape: no
    // xbarHops key at all.
    EXPECT_EQ(table->elements()[1].at("xbarHops"), nullptr);
}

TEST(FlightRecorder, IssuesReportedAheadSampleOccupancyAfterTheirCycle)
{
    EventQueue eq;
    FlightRecorder rec(eq, 10, "unit");

    // Players report issues when they compute them. Each issue's
    // crossbar-occupancy sample is the count after its cycle's
    // arbitration: A and B issue on cycle 5 (reported on 3), C on 6
    // (reported on 6, before that cycle's grant of A).
    const auto a = request(0, 0);
    const auto b = request(1, 0);
    const auto c = request(2, 0);
    at(eq, 3, [&] {
        rec.onIssue(a, 5);
        rec.onIssue(b, 5);
    });
    at(eq, 6, [&] {
        rec.onIssue(c, 6);
        rec.onGrant(a);
    });
    at(eq, 7, [&] { rec.onGrant(b); });
    at(eq, 8, [&] { rec.onGrant(c); });
    eq.run();

    const auto *occupancy = dynamic_cast<const stats::Histogram *>(
        rec.statsRoot().find("queues.xbarOccupancy"));
    ASSERT_NE(occupancy, nullptr);
    // A: 1, B: 2; C: B still waits after cycle 6's grant of A, so 2.
    EXPECT_EQ(occupancy->samples(), 3u);
    EXPECT_EQ(occupancy->sum(), 5u);
    EXPECT_EQ(occupancy->maxSeen(), 2u);
}

TEST(FlightRecorder, TopNKeepsTheSlowestFlights)
{
    EventQueue eq;
    FlightRecorder rec(eq, 2, "unit");

    // Three flights with end-to-end latencies 10, 40, 20.
    const Cycles latencies[] = {10, 40, 20};
    Cycles start = 0;
    for (std::uint64_t i = 0; i < 3; ++i) {
        const auto req = request(0, i);
        const Cycles s = start;
        at(eq, s, [&rec, &eq, req] { rec.onIssue(req, eq.curCycle()); });
        at(eq, s, [&rec, req] {
            rec.onGrant(req);
            rec.onCheck(req, true, req.id * 100, req.id * 100);
        });
        at(eq, s, [&rec, &eq, req] {
            rec.onMemAccept(req, eq.curCycle());
        });
        at(eq, s + latencies[i], [&rec, &eq, req] {
            rec.onRespond(dueNow(eq, response(0, req.id)));
        });
        start += 100;
    }
    // onCheck start/end above use absolute cycles of the grant.
    eq.run();

    EXPECT_EQ(rec.completedFlights(), 3u);
    const auto flights = rec.slowestFlights();
    ASSERT_EQ(flights.size(), 2u);
    EXPECT_EQ(flights[0].endToEnd(), 40u);
    EXPECT_EQ(flights[1].endToEnd(), 20u);
}

TEST(FlightRecorder, HistogramsAggregateIntoTheStatTree)
{
    EventQueue eq;
    FlightRecorder rec(eq, 4, "unit");

    for (std::uint64_t i = 0; i < 8; ++i) {
        const auto req = request(0, i);
        const Cycles s = i * 100;
        at(eq, s, [&rec, &eq, req] { rec.onIssue(req, eq.curCycle()); });
        at(eq, s + 1, [&rec, req, s] {
            rec.onGrant(req);
            rec.onCheck(req, true, s + 1, s + 2);
        });
        at(eq, s + 2, [&rec, &eq, req] {
            rec.onMemAccept(req, eq.curCycle());
        });
        at(eq, s + 32, [&rec, &eq, req] {
            rec.onRespond(dueNow(eq, response(0, req.id)));
        });
    }
    eq.run();

    const stats::StatBase *e2e = rec.statsRoot().find("endToEnd");
    ASSERT_NE(e2e, nullptr);
    const auto *hist = dynamic_cast<const stats::Histogram *>(e2e);
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->samples(), 8u);
    EXPECT_EQ(hist->minSeen(), 32u);
    EXPECT_EQ(hist->maxSeen(), 32u);

    // Attribution totals telescope across the whole run, too.
    std::ostringstream os;
    json::JsonWriter w(os);
    rec.statsRoot().dumpJson(w);
    const auto doc = json::parseJson(os.str());
    ASSERT_TRUE(doc.has_value());
    const double total =
        doc->at("attribution.endToEndCycles")->asNumber();
    const double parts =
        doc->at("attribution.xbarWaitCycles")->asNumber() +
        doc->at("attribution.checkCycles")->asNumber() +
        doc->at("attribution.drainCycles")->asNumber() +
        doc->at("attribution.memCycles")->asNumber();
    EXPECT_EQ(total, parts);
    EXPECT_EQ(total, 8 * 32.0);
}

TEST(FlightRecorder, EmptyArtefactsAreValidJson)
{
    const fs::path dir = fs::temp_directory_path() / "capcheck_flight";
    fs::create_directories(dir);
    const fs::path flights = dir / "empty.flights.json";
    const fs::path latency = dir / "empty.latency.json";

    FlightRecorder::writeEmptyFlightsFile(flights.string(), 10,
                                          "cpu-only");
    FlightRecorder::writeEmptyLatencyFile(latency.string(), "cpu-only");

    const auto fdoc = json::parseJson(slurp(flights));
    ASSERT_TRUE(fdoc.has_value());
    EXPECT_EQ(fdoc->at("label")->asString(), "cpu-only");
    EXPECT_TRUE(fdoc->at("flights")->elements().empty());

    const auto ldoc = json::parseJson(slurp(latency));
    ASSERT_TRUE(ldoc.has_value());
    EXPECT_EQ(ldoc->at("label")->asString(), "cpu-only");
    EXPECT_TRUE(ldoc->at("flights")->isObject());

    fs::remove_all(dir);
}

namespace
{

/**
 * Run @p req with flight recording and check, for every flight in the
 * artefact, that the per-hop breakdown telescopes to the end-to-end
 * latency (the in-run INVARIANT aborts the process otherwise, so this
 * doubles as a parse-level sanity check of the JSON shape).
 */
void
expectAttributionHolds(const RunRequest &req, const std::string &tag)
{
    const fs::path dir =
        fs::temp_directory_path() / ("capcheck_flight_" + tag);
    fs::create_directories(dir);
    const fs::path flights = dir / "run.flights.json";
    const fs::path latency = dir / "run.latency.json";

    obs::ObsOptions opts;
    opts.flightFile = flights.string();
    opts.latencyFile = latency.string();
    opts.topN = 16;
    opts.runLabel = req.label();
    req.execute(opts);

    const auto fdoc = json::parseJson(slurp(flights));
    ASSERT_TRUE(fdoc.has_value()) << tag;
    EXPECT_EQ(fdoc->at("label")->asString(), req.label());
    const json::JsonValue *table = fdoc->at("flights");
    ASSERT_NE(table, nullptr);
    EXPECT_FALSE(table->elements().empty()) << tag;
    for (const json::JsonValue &f : table->elements()) {
        // A path without a check stage (checker "none") has no check
        // or drain hop.
        const bool checked = f.at("hops.check") != nullptr;
        EXPECT_EQ(checked, f.at("hops.drain") != nullptr) << tag;
        EXPECT_EQ(checked, f.at("checkStart") != nullptr) << tag;
        double sum = f.at("hops.xbarWait")->asNumber() +
                     f.at("hops.mem")->asNumber();
        if (checked) {
            sum += f.at("hops.check")->asNumber() +
                   f.at("hops.drain")->asNumber();
        }
        EXPECT_EQ(sum, f.at("endToEnd")->asNumber()) << tag;
    }

    const auto ldoc = json::parseJson(slurp(latency));
    ASSERT_TRUE(ldoc.has_value()) << tag;
    const double total =
        ldoc->at("flights.attribution.endToEndCycles")->asNumber();
    const double parts =
        ldoc->at("flights.attribution.xbarWaitCycles")->asNumber() +
        ldoc->at("flights.attribution.checkCycles")->asNumber() +
        ldoc->at("flights.attribution.drainCycles")->asNumber() +
        ldoc->at("flights.attribution.memCycles")->asNumber();
    EXPECT_EQ(total, parts) << tag;
    EXPECT_EQ(ldoc->at("flights.issued")->asNumber(),
              ldoc->at("flights.completed")->asNumber())
        << tag;

    fs::remove_all(dir);
}

system::SocConfig
config(SystemMode mode, capchecker::Provenance prov,
       unsigned cache_entries)
{
    SocConfigBuilder b;
    b.mode(mode).numInstances(2).seed(1).provenance(prov);
    if (cache_entries)
        b.capCache(cache_entries, 60);
    return b.build();
}

} // namespace

TEST(FlightRecorderIntegration, AttributionHoldsUnderFineProvenance)
{
    expectAttributionHolds(
        RunRequest::single("aes",
                           config(SystemMode::ccpuCaccel,
                                  capchecker::Provenance::fine, 0)),
        "fine");
}

TEST(FlightRecorderIntegration, AttributionHoldsUnderCoarseProvenance)
{
    expectAttributionHolds(
        RunRequest::single("aes",
                           config(SystemMode::ccpuCaccel,
                                  capchecker::Provenance::coarse, 0)),
        "coarse");
}

TEST(FlightRecorderIntegration, AttributionHoldsWithACapCache)
{
    expectAttributionHolds(
        RunRequest::single("gemm_ncubed",
                           config(SystemMode::ccpuCaccel,
                                  capchecker::Provenance::fine, 4)),
        "cache");
}

TEST(FlightRecorderIntegration, AttributionHoldsOnUnprotectedPath)
{
    expectAttributionHolds(
        RunRequest::single("aes",
                           config(SystemMode::cpuAccel,
                                  capchecker::Provenance::fine, 0)),
        "passthrough");

    // Checker "none" elaborates no check stage: the flights carry no
    // check hop, and the latency histograms sample none.
    const fs::path dir =
        fs::temp_directory_path() / "capcheck_flight_unchecked";
    fs::create_directories(dir);
    const fs::path latency = dir / "run.latency.json";
    const auto req = RunRequest::single(
        "aes", config(SystemMode::cpuAccel, capchecker::Provenance::fine,
                      0));
    obs::ObsOptions opts;
    opts.latencyFile = latency.string();
    opts.runLabel = req.label();
    req.execute(opts);
    const auto doc = json::parseJson(slurp(latency));
    fs::remove_all(dir);
    ASSERT_TRUE(doc.has_value());
    EXPECT_GT(doc->at("flights.completed")->asNumber(), 0.0);
    EXPECT_EQ(doc->at("flights.hops.check.samples")->asNumber(), 0.0);
    EXPECT_EQ(doc->at("flights.hops.drain.samples")->asNumber(), 0.0);
    EXPECT_EQ(doc->at("flights.hops.mem.samples")->asNumber(),
              doc->at("flights.completed")->asNumber());
}

TEST(FlightRecorderIntegration, CacheOutcomesAppearInTheArtefacts)
{
    const fs::path dir =
        fs::temp_directory_path() / "capcheck_flight_outcomes";
    fs::create_directories(dir);
    const fs::path latency = dir / "run.latency.json";

    const auto req = RunRequest::single(
        "gemm_ncubed",
        config(SystemMode::ccpuCaccel, capchecker::Provenance::fine,
               4));
    obs::ObsOptions opts;
    opts.latencyFile = latency.string();
    opts.runLabel = req.label();
    req.execute(opts);

    const auto doc = json::parseJson(slurp(latency));
    ASSERT_TRUE(doc.has_value());
    const double hits = doc->at("flights.cacheHits")->asNumber();
    const double misses = doc->at("flights.cacheMisses")->asNumber();
    EXPECT_GT(hits + misses, 0.0);
    EXPECT_GT(misses, 0.0); // cold cache: the first accesses walk

    fs::remove_all(dir);
}
