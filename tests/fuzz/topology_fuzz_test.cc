/**
 * @file
 * Seeded topology fuzzer. Two layers:
 *
 *  - Capgen: the generator's contract — identical parameters always
 *    produce byte-identical canonical JSON (the determinism gate CI
 *    enforces on the capgen binary), every emitted graph survives the
 *    JSON round-trip unchanged, and out-of-envelope parameters are
 *    rejected with a TopologyError rather than a bad graph.
 *
 *  - TopoFuzz: random shape knobs (accelerator count, tree depth,
 *    fanout, channels, banks, seed) drive generateTopology(), and
 *    every resulting graph must elaborate: tasks all attach, every
 *    task resolves to exactly one protection checker, and the graph
 *    dump renders. A subset runs end-to-end with flight recording —
 *    the always-on hops-sum-to-latency INVARIANT aborts the process
 *    if multi-hop attribution leaks a cycle — and a final triple runs
 *    the same wiring under none / shared capchecker / banked checkers
 *    to pin the permissiveness lattice: legitimate MachSuite DMA is
 *    correct with zero exceptions under every scheme, moving the same
 *    number of beats.
 *
 * Iteration budget scales with CAPCHECK_FUZZ_ITERS (default keeps the
 * quick tier >= 100 distinct graphs; a soak sweeps thousands).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "base/json_value.hh"
#include "base/random.hh"
#include "harness/run_request.hh"
#include "obs/options.hh"
#include "system/elaborator.hh"
#include "system/soc_system.hh"
#include "system/topogen.hh"
#include "fuzz_env.hh"

namespace capcheck::system
{
namespace
{

namespace fs = std::filesystem;

/** Random shape inside generateTopology's documented envelope. */
TopoGenParams
randomParams(Rng &rng)
{
    TopoGenParams p;
    p.accels = 1 + static_cast<unsigned>(rng.nextBounded(24));
    p.levels = 1 + static_cast<unsigned>(rng.nextBounded(3));
    p.fanout = 1 + static_cast<unsigned>(rng.nextBounded(4));
    p.channels = 1 + static_cast<unsigned>(rng.nextBounded(4));
    p.banks = static_cast<unsigned>(rng.nextBounded(5));
    p.seed = rng.next();
    return p;
}

SocConfig
config(SystemMode mode, unsigned tasks, const std::string &topo_file)
{
    SocConfig cfg;
    cfg.mode = mode;
    cfg.numInstances = tasks;
    cfg.collectStats = true;
    cfg.seed = 3;
    cfg.topologyFile = topo_file;
    return cfg;
}

std::string
writeTempTopo(const std::string &stem, const Topology &topo)
{
    const fs::path path =
        fs::temp_directory_path() / (stem + ".topo.json");
    std::ofstream os(path);
    os << topo.toJsonText();
    return path.string();
}

/** Elaborate @p topo and assert the structural invariants. */
void
expectElaborates(const TopoGenParams &p, const Topology &topo,
                 unsigned tasks)
{
    SocConfig cfg;
    cfg.mode = SystemMode::ccpuCaccel;
    cfg.numInstances = tasks;
    cfg.seed = 3;
    EventQueue eq;
    stats::StatGroup root("soc");
    try {
        const Platform platform =
            Elaborator(eq, &root, cfg).elaborate(topo, tasks);

        // Every task attached, on a real crossbar slot, and resolved
        // to exactly one checker (protectionFor throws on ambiguity).
        ASSERT_EQ(platform.taskAttach.size(), tasks) << topoGenName(p);
        for (unsigned t = 0; t < tasks; ++t) {
            ASSERT_NE(platform.attachOf(t).xbar, nullptr)
                << topoGenName(p);
            EXPECT_NE(platform.protectionFor(t), nullptr)
                << topoGenName(p) << " task " << t
                << " reaches memory unchecked";
        }

        // The graph renders, and names the root of the tree.
        const std::string dump = platform.graphDump();
        EXPECT_NE(dump.find("topology " + topoGenName(p)),
                  std::string::npos);
        EXPECT_NE(dump.find("xbar0_0"), std::string::npos)
            << topoGenName(p);
    } catch (const std::exception &e) {
        FAIL() << topoGenName(p) << " tasks=" << tasks
               << " failed to elaborate: " << e.what();
    }
}

TEST(Capgen, IdenticalParametersAreByteIdentical)
{
    Rng rng(fuzz::seed() ^ 0xca9);
    for (int i = 0; i < 32; ++i) {
        const TopoGenParams p = randomParams(rng);
        EXPECT_EQ(generateTopology(p).toJsonText(),
                  generateTopology(p).toJsonText())
            << topoGenName(p);
    }
}

TEST(Capgen, OutputIsCanonicalUnderRoundTrip)
{
    Rng rng(fuzz::seed() ^ 0xca91);
    for (int i = 0; i < 32; ++i) {
        const TopoGenParams p = randomParams(rng);
        const std::string text = generateTopology(p).toJsonText();
        const auto doc = json::parseJson(text);
        ASSERT_TRUE(doc.has_value()) << topoGenName(p);
        EXPECT_EQ(Topology::fromJson(*doc).toJsonText(), text)
            << topoGenName(p);
    }
}

TEST(Capgen, NameEncodesTheShape)
{
    TopoGenParams p;
    p.accels = 128;
    p.levels = 2;
    p.channels = 4;
    p.banks = 0;
    p.seed = 7;
    EXPECT_EQ(topoGenName(p), "gen-a128-l2-c4-b0-s7");
    EXPECT_EQ(generateTopology(p).name, topoGenName(p));
}

TEST(Capgen, RejectsOutOfEnvelopeParameters)
{
    TopoGenParams zero_accels;
    zero_accels.accels = 0;
    EXPECT_THROW(generateTopology(zero_accels), TopologyError);

    TopoGenParams zero_levels;
    zero_levels.levels = 0;
    EXPECT_THROW(generateTopology(zero_levels), TopologyError);

    TopoGenParams zero_fanout;
    zero_fanout.fanout = 0;
    EXPECT_THROW(generateTopology(zero_fanout), TopologyError);

    TopoGenParams zero_channels;
    zero_channels.channels = 0;
    EXPECT_THROW(generateTopology(zero_channels), TopologyError);
}

TEST(TopoFuzz, EveryGeneratedGraphElaborates)
{
    Rng rng(fuzz::seed() ^ 0x70f2);
    // >= 100 distinct graphs even when CI scales the budget down; the
    // default 15000-iteration budget elaborates 150.
    const std::uint64_t graphs =
        std::max<std::uint64_t>(100, fuzz::iterations(15000) / 100);

    for (std::uint64_t i = 0; i < graphs; ++i) {
        const TopoGenParams p = randomParams(rng);
        const Topology topo = generateTopology(p);

        // Canonical: survives the JSON round-trip byte for byte.
        const auto doc = json::parseJson(topo.toJsonText());
        ASSERT_TRUE(doc.has_value()) << topoGenName(p);
        ASSERT_EQ(Topology::fromJson(*doc).toJsonText(),
                  topo.toJsonText())
            << topoGenName(p);

        // Elaborates for any task count up to the accelerator budget.
        const unsigned tasks =
            1 + static_cast<unsigned>(rng.nextBounded(p.accels));
        expectElaborates(p, topo, tasks);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(TopoFuzz, RandomGraphsRunWithConservedFlightAttribution)
{
    Rng rng(fuzz::seed() ^ 0xf119);
    // End-to-end runs are ~1000x an elaboration; a handful per run is
    // enough since every beat's attribution is INVARIANT-checked.
    for (int i = 0; i < 3; ++i) {
        const TopoGenParams p = randomParams(rng);
        const Topology topo = generateTopology(p);
        const std::string path = writeTempTopo(
            "fuzz-e2e-" + std::to_string(i), topo);
        const unsigned tasks = std::min(p.accels, 4u);

        const auto req = harness::RunRequest::single(
            "aes",
            config(SystemMode::ccpuCaccel, tasks, path), tasks);

        const fs::path dir =
            fs::temp_directory_path() /
            ("capcheck_topofuzz_" + std::to_string(i));
        fs::create_directories(dir);
        obs::ObsOptions obs;
        obs.flightFile = (dir / "run.flights.json").string();
        obs.latencyFile = (dir / "run.latency.json").string();
        obs.topN = 8;
        obs.runLabel = topoGenName(p);
        // The recorder's hops-sum-to-latency INVARIANT fires on every
        // flight; an attribution leak anywhere in the tree aborts.
        const RunResult r = req.execute(obs);
        std::remove(path.c_str());
        fs::remove_all(dir);

        EXPECT_TRUE(r.functionallyCorrect) << topoGenName(p);
        EXPECT_EQ(r.exceptions, 0u) << topoGenName(p);
        EXPECT_GT(r.dmaBeats, 0u) << topoGenName(p);
    }
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

TEST(TopoFuzz, ZeroLatencyLeafStagesCheckEachBeatOnce)
{
    // Zero-cycle checks in stages above a root crossbar (the shape the
    // pipeline oracle's seed 407715774545 drew). A pass-through that
    // finds its root slot still full waits in the stage for the next
    // cycle: each beat is checked once, however long the root makes
    // it wait.
    TopoGenParams p;
    p.accels = 4;
    p.levels = 2;
    p.fanout = 2;
    p.banks = 2;
    const std::string path =
        writeTempTopo("zero-latency-leaf-stages", generateTopology(p));
    SocConfig cfg = config(SystemMode::ccpuCaccel, 4, path);
    cfg.checkCycles = 0;
    const RunResult r = SocSystem(cfg).runBenchmark("gemm_ncubed");
    std::remove(path.c_str());

    EXPECT_TRUE(r.functionallyCorrect);
    EXPECT_EQ(r.exceptions, 0u);
    const std::uint64_t checked =
        statValue(r.statsText, "soc.stage0.checked") +
        statValue(r.statsText, "soc.stage1.checked");
    const std::uint64_t root_grants =
        statValue(r.statsText, "soc.xbar0_0.grants");
    EXPECT_GT(root_grants, 0u);
    EXPECT_EQ(checked, root_grants);
    // The root really made the stages wait.
    EXPECT_GT(statValue(r.statsText, "soc.stage0.stallCycles") +
                  statValue(r.statsText, "soc.stage1.stallCycles"),
              0u);
}

TEST(TopoFuzz, DmaBeatsCountEachBeatOnceAtAnyTreeDepth)
{
    // A beat crosses one crossbar per level; the result counts the
    // beats the players issue, so depth must not multiply it.
    const unsigned tasks = 8;
    const RunResult flat =
        SocSystem(config(SystemMode::cpuAccel, tasks, ""))
            .runBenchmark("aes");
    EXPECT_GT(flat.dmaBeats, 0u);
    for (const unsigned levels : {1u, 2u}) {
        TopoGenParams p;
        p.accels = tasks;
        p.levels = levels;
        p.fanout = 2;
        const std::string path = writeTempTopo(
            "beats-l" + std::to_string(levels), generateTopology(p));
        const RunResult r =
            SocSystem(config(SystemMode::cpuAccel, tasks, path))
                .runBenchmark("aes");
        std::remove(path.c_str());
        EXPECT_TRUE(r.functionallyCorrect) << topoGenName(p);
        EXPECT_EQ(r.dmaBeats, flat.dmaBeats) << topoGenName(p);
    }
}

TEST(TopoFuzz, TraceCountsEachGrantOnceOnACascade)
{
    // The Chrome trace's xbarGrants counter counts a beat at the
    // crossbar it enters the tree through, not once per level. The
    // counter samples every 256th grant, so its largest value lies
    // within one stride below the beats the players issued.
    const unsigned tasks = 8;
    TopoGenParams p;
    p.accels = tasks;
    p.levels = 2;
    p.fanout = 2;
    const std::string path =
        writeTempTopo("trace-grants", generateTopology(p));
    const fs::path trace =
        fs::temp_directory_path() / "capcheck_trace_grants.json";
    obs::ObsOptions obs;
    obs.traceFile = trace.string();
    const RunResult r =
        harness::RunRequest::single(
            "gemm_ncubed", config(SystemMode::ccpuCaccel, tasks, path),
            tasks)
            .execute(obs);
    std::remove(path.c_str());
    const auto events = json::parseJsonFile(trace.string());
    fs::remove(trace);
    ASSERT_TRUE(events.has_value());

    double grants = 0;
    for (const json::JsonValue &ev : events->elements()) {
        const json::JsonValue *name = ev.get("name");
        if (name && name->asString() == "xbarGrants")
            grants = std::max(grants, ev.at("args.grants")->asNumber());
    }
    EXPECT_TRUE(r.functionallyCorrect);
    EXPECT_GT(grants + 256, static_cast<double>(r.dmaBeats));
    EXPECT_LE(grants, static_cast<double>(r.dmaBeats));
}

TEST(TopoFuzz, PermissivenessLatticeHoldsOnARandomTree)
{
    Rng rng(fuzz::seed() ^ 0x1a77);
    TopoGenParams p = randomParams(rng);
    p.accels = std::max(p.accels, 4u);
    const unsigned tasks = 4;

    // Same wiring, three protection points on the lattice. All must
    // pass legitimate DMA untouched: correct, exception-free, and
    // moving the same number of beats.
    struct SchemePoint
    {
        const char *scheme;
        unsigned banks;
        SystemMode mode;
    };
    const SchemePoint points[] = {
        {"none", 0, SystemMode::cpuAccel},
        {"capchecker", 0, SystemMode::ccpuCaccel},
        {"checker_bank", 4, SystemMode::ccpuCaccel},
    };

    std::uint64_t beats = 0;
    for (const SchemePoint &point : points) {
        TopoGenParams sp = p;
        sp.scheme = point.scheme;
        sp.banks = point.banks;
        const std::string path = writeTempTopo(
            std::string("fuzz-lattice-") + point.scheme,
            generateTopology(sp));
        const RunResult r =
            SocSystem(config(point.mode, tasks, path))
                .runBenchmark("aes");
        std::remove(path.c_str());

        EXPECT_TRUE(r.functionallyCorrect)
            << point.scheme << " on " << topoGenName(sp);
        EXPECT_EQ(r.exceptions, 0u)
            << point.scheme << " denied legitimate DMA on "
            << topoGenName(sp);
        EXPECT_GT(r.dmaBeats, 0u) << point.scheme;
        if (beats == 0)
            beats = r.dmaBeats;
        EXPECT_EQ(r.dmaBeats, beats)
            << point.scheme
            << " moved a different number of beats on "
            << topoGenName(sp);
    }
}

} // namespace
} // namespace capcheck::system
