/**
 * @file
 * Tests for the declarative topology layer: builtin shapes, JSON
 * parsing/validation, lossless round-tripping, elaboration into a
 * bound platform graph, and — the load-bearing property — that runs on
 * a JSON-loaded topology reproduce the builtin platform's results
 * byte for byte while new shapes (multi-channel memory, banked
 * checkers) elaborate and run MachSuite correctly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/json_value.hh"
#include "harness/run_request.hh"
#include "obs/options.hh"
#include "system/elaborator.hh"
#include "system/soc_config_builder.hh"
#include "system/soc_system.hh"
#include "system/topogen.hh"

namespace capcheck::system
{
namespace
{

namespace fs = std::filesystem;

SocConfig
config(SystemMode mode)
{
    SocConfig cfg;
    cfg.mode = mode;
    cfg.numInstances = 2;
    cfg.collectStats = true;
    cfg.seed = 3;
    return cfg;
}

/** Write @p text under a unique name in the temp dir; caller removes. */
std::string
writeTempFile(const std::string &stem, const std::string &text)
{
    const fs::path path =
        fs::temp_directory_path() / (stem + ".topo.json");
    std::ofstream os(path);
    os << text;
    return path.string();
}

/** Two-channel shape: xbar -> checkstage -> router -> 2 memctrls. */
const char *twoChannelJson = R"({
  "name": "two-channel",
  "nodes": [
    {"name": "protect", "kind": "protect", "params": {"scheme": "auto"}},
    {"name": "memctrl0", "kind": "memctrl", "params": {}},
    {"name": "memctrl1", "kind": "memctrl", "params": {}},
    {"name": "router", "kind": "router",
     "params": {"channels": 2, "interleaveBytes": 64}},
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

TEST(Topology, BuiltinsCoverTheFiveConfigurations)
{
    ASSERT_EQ(Topology::builtinNames().size(), 5u);
    for (const std::string &name : Topology::builtinNames()) {
        const Topology topo = Topology::builtinByName(name);
        EXPECT_EQ(topo.name, name);
    }
    EXPECT_FALSE(Topology::builtin(SystemMode::cpu).hasPlatform());
    EXPECT_FALSE(Topology::builtin(SystemMode::ccpu).hasPlatform());
    const Topology caccel = Topology::builtin(SystemMode::ccpuCaccel);
    ASSERT_TRUE(caccel.hasPlatform());
    EXPECT_NE(caccel.findNode("xbar"), nullptr);
    EXPECT_NE(caccel.findNode("checkstage"), nullptr);
    EXPECT_EQ(caccel.findNode("nope"), nullptr);
    EXPECT_THROW(Topology::builtinByName("warp-drive"), TopologyError);
}

TEST(Topology, RoundTripsThroughJsonLosslessly)
{
    for (const std::string &name : Topology::builtinNames()) {
        const Topology topo = Topology::builtinByName(name);
        const std::string text = topo.toJsonText();
        const auto doc = json::parseJson(text);
        ASSERT_TRUE(doc.has_value()) << name;
        const Topology reloaded = Topology::fromJson(*doc);
        EXPECT_EQ(reloaded.toJsonText(), text) << name;
    }

    const auto doc = json::parseJson(twoChannelJson);
    ASSERT_TRUE(doc.has_value());
    const Topology topo = Topology::fromJson(*doc);
    const auto doc2 = json::parseJson(topo.toJsonText());
    ASSERT_TRUE(doc2.has_value());
    EXPECT_EQ(Topology::fromJson(*doc2).toJsonText(),
              topo.toJsonText());
}

TEST(Topology, FromJsonValidatesStructure)
{
    const auto parse = [](const char *text) {
        const auto doc = json::parseJson(text);
        EXPECT_TRUE(doc.has_value());
        return Topology::fromJson(*doc);
    };

    // Not an object.
    EXPECT_THROW(parse("[1, 2]"), TopologyError);
    // Unknown node kind.
    EXPECT_THROW(
        parse(R"({"name": "x", "nodes": [
                  {"name": "a", "kind": "flux_capacitor"}]})"),
        TopologyError);
    // Duplicate node name.
    EXPECT_THROW(
        parse(R"({"name": "x", "nodes": [
                  {"name": "a", "kind": "memctrl"},
                  {"name": "a", "kind": "memctrl"}]})"),
        TopologyError);
    // Dots in a node name would break "component.port" addressing.
    EXPECT_THROW(
        parse(R"({"name": "x", "nodes": [
                  {"name": "a.b", "kind": "memctrl"}]})"),
        TopologyError);
    // Edge endpoints must be dotted.
    EXPECT_THROW(
        parse(R"({"name": "x", "nodes": [
                  {"name": "a", "kind": "memctrl"}],
                  "edges": [{"from": "a", "to": "a.cpu_side"}]})"),
        TopologyError);
}

TEST(Topology, LoadFileNamesTheFileInErrors)
{
    try {
        Topology::loadFile("/nonexistent/nowhere.json");
        FAIL() << "expected TopologyError";
    } catch (const TopologyError &e) {
        EXPECT_NE(std::string(e.what()).find("nowhere.json"),
                  std::string::npos);
    }
}

TEST(Elaborator, BuiltinGraphDumpIsTheCanonicalPlatform)
{
    const SocConfig cfg = config(SystemMode::ccpuCaccel);
    EventQueue eq;
    stats::StatGroup root("soc");
    const Platform platform =
        Elaborator(eq, &root, cfg).elaborate(
            Topology::builtin(cfg.mode), 2);

    EXPECT_EQ(platform.graphDump(),
              "topology ccpu+caccel\n"
              "component memctrl\n"
              "  cpu_side [response] -> checkstage.mem_side\n"
              "component checkstage\n"
              "  cpu_side [response] -> xbar.mem_side\n"
              "  mem_side [request] -> memctrl.cpu_side\n"
              "component xbar\n"
              "  mem_side [request] -> checkstage.cpu_side\n"
              "  accel_side0 [response] -> (unbound)\n"
              "  accel_side1 [response] -> (unbound)\n"
              "checker protect: capchecker-fine\n"
              "task 0 -> xbar.accel_side0\n"
              "task 1 -> xbar.accel_side1\n");

    const auto checker = [&](TaskId t) {
        return Platform::checkerFor(platform.protectionFor(t), t);
    };
    EXPECT_NE(checker(0), nullptr);
    EXPECT_EQ(checker(0), checker(1));
}

TEST(Elaborator, RejectsTopologyWithUnboundPorts)
{
    Topology topo = Topology::builtin(SystemMode::ccpuCaccel);
    topo.edges.pop_back(); // drop checkstage.mem_side -> memctrl
    EventQueue eq;
    stats::StatGroup root("soc");
    const SocConfig cfg = config(SystemMode::ccpuCaccel);
    try {
        Elaborator(eq, &root, cfg).elaborate(topo, 2);
        FAIL() << "expected PortError";
    } catch (const PortError &e) {
        EXPECT_EQ(e.kind(), PortError::Kind::unbound);
        // memctrl registers first, so its dangling cpu_side is the
        // first unbound port the completeness sweep reports.
        EXPECT_NE(std::string(e.what()).find("memctrl.cpu_side"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("ccpu+caccel"),
                  std::string::npos);
    }
}

TEST(Elaborator, RejectsPoolOnMissingXbar)
{
    Topology topo = Topology::builtin(SystemMode::ccpuCaccel);
    for (TopologyNode &node : topo.nodes) {
        if (node.kind == "accel_pool") {
            node.params = json::JsonValue::makeObject(
                {{"xbar", json::JsonValue::makeString("ghost")}});
        }
    }
    EventQueue eq;
    stats::StatGroup root("soc");
    const SocConfig cfg = config(SystemMode::ccpuCaccel);
    EXPECT_THROW(Elaborator(eq, &root, cfg).elaborate(topo, 2),
                 TopologyError);
}

TEST(SocSystemTopology, JsonLoadedBuiltinReproducesByteIdenticalRuns)
{
    // The acceptance property: a run on the canonical builtin and a
    // run on the same shape loaded from JSON are indistinguishable,
    // stats dump included.
    SocConfig builtin_cfg = config(SystemMode::ccpuCaccel);
    const RunResult builtin_run =
        SocSystem(builtin_cfg).runBenchmark("aes");

    const std::string path = writeTempFile(
        "builtin-copy",
        Topology::builtin(SystemMode::ccpuCaccel).toJsonText());
    SocConfig loaded_cfg = builtin_cfg;
    loaded_cfg.topologyFile = path;
    const RunResult loaded_run =
        SocSystem(loaded_cfg).runBenchmark("aes");
    std::remove(path.c_str());

    EXPECT_EQ(builtin_run, loaded_run);
    EXPECT_EQ(builtin_run.statsJson, loaded_run.statsJson);
}

TEST(SocSystemTopology, TwoChannelTopologyRunsMachSuiteUnderFine)
{
    const std::string path =
        writeTempFile("two-channel", twoChannelJson);
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    cfg.provenance = capchecker::Provenance::fine;
    cfg.topologyFile = path;

    SocSystem soc(cfg);
    // The elaborated graph is dumpable and names both channels.
    const std::string dump = soc.topology().toJsonText();
    EXPECT_NE(dump.find("memctrl0"), std::string::npos);
    EXPECT_NE(dump.find("memctrl1"), std::string::npos);

    const RunResult r = soc.runBenchmark("gemm_ncubed");
    std::remove(path.c_str());
    EXPECT_TRUE(r.functionallyCorrect);
    EXPECT_EQ(r.exceptions, 0u);
    EXPECT_GT(r.dmaBeats, 0u);

    // The interleaved router really used both channels.
    EXPECT_NE(r.statsJson.find("router"), std::string::npos);
}

TEST(SocSystemTopology, BankedCheckerTopologyIsolatesPerTask)
{
    const std::string path = writeTempFile("banked", R"({
      "name": "banked",
      "nodes": [
        {"name": "protect", "kind": "protect",
         "params": {"scheme": "checker_bank"}},
        {"name": "memctrl", "kind": "memctrl", "params": {}},
        {"name": "checkstage", "kind": "checkstage",
         "params": {"checker": "protect"}},
        {"name": "xbar", "kind": "xbar", "params": {}},
        {"name": "accels", "kind": "accel_pool",
         "params": {"xbar": "xbar"}}
      ],
      "edges": [
        {"from": "xbar.mem_side", "to": "checkstage.cpu_side"},
        {"from": "checkstage.mem_side", "to": "memctrl.cpu_side"}
      ]
    })");
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    cfg.topologyFile = path;
    const RunResult r = SocSystem(cfg).runBenchmark("aes");
    std::remove(path.c_str());
    EXPECT_TRUE(r.functionallyCorrect);
    EXPECT_EQ(r.exceptions, 0u);
}

TEST(SocSystemTopology, CheckerlessModeElaboratesProtectAsNone)
{
    // One file serves every mode: scheme "auto" resolves from the
    // config, so the same topology runs unprotected under ccpu+accel.
    const std::string path = writeTempFile(
        "auto-scheme",
        Topology::builtin(SystemMode::ccpuCaccel).toJsonText());
    SocConfig cfg = config(SystemMode::ccpuAccel);
    cfg.topologyFile = path;
    const RunResult r = SocSystem(cfg).runBenchmark("aes");
    std::remove(path.c_str());
    EXPECT_TRUE(r.functionallyCorrect);
    EXPECT_EQ(r.peakTableEntries, 0u);
}

/** Two leaf xbars cascaded into a root xbar, one shared stage. */
const char *cascadeJson = R"({
  "name": "cascade",
  "nodes": [
    {"name": "protect", "kind": "protect", "params": {"scheme": "auto"}},
    {"name": "memctrl", "kind": "memctrl", "params": {}},
    {"name": "checkstage", "kind": "checkstage",
     "params": {"checker": "protect"}},
    {"name": "root", "kind": "xbar", "params": {"masters": 2}},
    {"name": "leaf0", "kind": "xbar", "params": {"masters": 2}},
    {"name": "leaf1", "kind": "xbar", "params": {"masters": 2}},
    {"name": "pool0", "kind": "accel_pool", "params": {"xbar": "leaf0"}},
    {"name": "pool1", "kind": "accel_pool", "params": {"xbar": "leaf1"}}
  ],
  "edges": [
    {"from": "leaf0.mem_side", "to": "root.accel_side0"},
    {"from": "leaf1.mem_side", "to": "root.accel_side1"},
    {"from": "root.mem_side", "to": "checkstage.cpu_side"},
    {"from": "checkstage.mem_side", "to": "memctrl.cpu_side"}
  ]
})";

TEST(Elaborator, CascadedXbarsBindAndAttachTasksToTheLeaves)
{
    const auto doc = json::parseJson(cascadeJson);
    ASSERT_TRUE(doc.has_value());
    const Topology topo = Topology::fromJson(*doc);

    EventQueue eq;
    stats::StatGroup root("soc");
    const SocConfig cfg = config(SystemMode::ccpuCaccel);
    const Platform platform =
        Elaborator(eq, &root, cfg).elaborate(topo, 4);

    const std::string dump = platform.graphDump();
    // The child crossbars' mem_side ports plug into the root's
    // accel_side slots...
    EXPECT_NE(dump.find("mem_side [request] -> root.accel_side0"),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("mem_side [request] -> root.accel_side1"),
              std::string::npos)
        << dump;
    // ...and the tasks round-robin across the two pools, never onto
    // the root (its slots are edge-bound).
    EXPECT_NE(dump.find("task 0 -> leaf0.accel_side0"),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("task 1 -> leaf1.accel_side0"),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("task 2 -> leaf0.accel_side1"),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("task 3 -> leaf1.accel_side1"),
              std::string::npos)
        << dump;

    // The checker walk crosses both crossbar levels.
    for (TaskId t = 0; t < 4; ++t)
        EXPECT_NE(platform.protectionFor(t), nullptr) << "task " << t;
    EXPECT_EQ(platform.protectionFor(0), platform.protectionFor(3));
}

TEST(Topology, EdgeToUndeclaredComponentNamesTheNode)
{
    const auto doc = json::parseJson(R"({
      "name": "x",
      "nodes": [{"name": "memctrl", "kind": "memctrl"}],
      "edges": [{"from": "ghost.mem_side", "to": "memctrl.cpu_side"}]
    })");
    ASSERT_TRUE(doc.has_value());
    try {
        Topology::fromJson(*doc);
        FAIL() << "expected TopologyError";
    } catch (const TopologyError &e) {
        EXPECT_EQ(e.node(), "ghost");
        EXPECT_NE(std::string(e.what()).find("ghost.mem_side"),
                  std::string::npos);
    }
}

TEST(Elaborator, EdgeToUnknownPortIsAPortErrorNamingThePort)
{
    Topology topo = Topology::builtin(SystemMode::ccpuCaccel);
    for (TopologyEdge &edge : topo.edges) {
        if (edge.to == "memctrl.cpu_side")
            edge.to = "memctrl.warp_core";
    }
    EventQueue eq;
    stats::StatGroup root("soc");
    const SocConfig cfg = config(SystemMode::ccpuCaccel);
    try {
        Elaborator(eq, &root, cfg).elaborate(topo, 2);
        FAIL() << "expected PortError";
    } catch (const PortError &e) {
        EXPECT_EQ(e.kind(), PortError::Kind::unknownPort);
        EXPECT_NE(std::string(e.what()).find("warp_core"),
                  std::string::npos);
    }
}

TEST(Elaborator, DoubleBoundPortIsAPortError)
{
    Topology topo = Topology::builtin(SystemMode::ccpuCaccel);
    // A second producer into the already-bound memctrl.cpu_side.
    topo.nodes.push_back(TopologyNode{
        "stage2", "checkstage",
        json::JsonValue::makeObject(
            {{"checker", json::JsonValue::makeString("protect")}})});
    topo.edges.push_back(
        TopologyEdge{"stage2.mem_side", "memctrl.cpu_side"});
    EventQueue eq;
    stats::StatGroup root("soc");
    const SocConfig cfg = config(SystemMode::ccpuCaccel);
    try {
        Elaborator(eq, &root, cfg).elaborate(topo, 2);
        FAIL() << "expected PortError";
    } catch (const PortError &e) {
        EXPECT_EQ(e.kind(), PortError::Kind::doubleBind);
        EXPECT_NE(std::string(e.what()).find("memctrl.cpu_side"),
                  std::string::npos);
    }
}

TEST(Elaborator, WiredCycleIsATopologyErrorNamingAComponent)
{
    // Two crossbars feeding each other: a request path that never
    // reaches memory. The checker-resolution walk must diagnose the
    // loop instead of recursing forever.
    const auto doc = json::parseJson(R"({
      "name": "loop",
      "nodes": [
        {"name": "a", "kind": "xbar", "params": {"masters": 2}},
        {"name": "b", "kind": "xbar", "params": {"masters": 1}},
        {"name": "pool", "kind": "accel_pool", "params": {"xbar": "a"}}
      ],
      "edges": [
        {"from": "a.mem_side", "to": "b.accel_side0"},
        {"from": "b.mem_side", "to": "a.accel_side0"}
      ]
    })");
    ASSERT_TRUE(doc.has_value());
    const Topology topo = Topology::fromJson(*doc);
    EventQueue eq;
    stats::StatGroup root("soc");
    const SocConfig cfg = config(SystemMode::ccpuCaccel);
    try {
        Elaborator(eq, &root, cfg).elaborate(topo, 1);
        FAIL() << "expected TopologyError";
    } catch (const TopologyError &e) {
        EXPECT_NE(std::string(e.what()).find("cycle"),
                  std::string::npos);
        EXPECT_FALSE(e.node().empty());
    }
}

TEST(Elaborator, CheckstageBankOutOfRangeNamesTheStage)
{
    const auto doc = json::parseJson(R"({
      "name": "bad-bank",
      "nodes": [
        {"name": "protect", "kind": "protect",
         "params": {"scheme": "checker_bank", "banks": 2}},
        {"name": "memctrl", "kind": "memctrl", "params": {}},
        {"name": "checkstage", "kind": "checkstage",
         "params": {"checker": "protect", "bank": 7}},
        {"name": "xbar", "kind": "xbar", "params": {}},
        {"name": "accels", "kind": "accel_pool",
         "params": {"xbar": "xbar"}}
      ],
      "edges": [
        {"from": "xbar.mem_side", "to": "checkstage.cpu_side"},
        {"from": "checkstage.mem_side", "to": "memctrl.cpu_side"}
      ]
    })");
    ASSERT_TRUE(doc.has_value());
    const Topology topo = Topology::fromJson(*doc);
    EventQueue eq;
    stats::StatGroup root("soc");
    const SocConfig cfg = config(SystemMode::ccpuCaccel);
    try {
        Elaborator(eq, &root, cfg).elaborate(topo, 2);
        FAIL() << "expected TopologyError";
    } catch (const TopologyError &e) {
        EXPECT_EQ(e.node(), "checkstage");
        EXPECT_NE(std::string(e.what()).find("bank 7"),
                  std::string::npos);
    }
}

TEST(SocSystemTopology, MegaTopologyMatchesPinnedDigest)
{
    // 128 accelerators on a two-level crossbar tree over four
    // interleaved channels. The flight and latency artefacts must match
    // the pinned digest, first recorded under the retired reference
    // simulation kernels (every flight INVARIANT-checked to attribute
    // each cycle to exactly one hop). The digest is FNV-1a over
    // flights + latency.
    TopoGenParams params;
    params.accels = 128;
    params.levels = 2;
    params.fanout = 4;
    params.channels = 4;
    params.seed = 7;
    const std::string path = writeTempFile(
        "mega", generateTopology(params).toJsonText());

    const fs::path dir = fs::temp_directory_path() / "capcheck_mega";
    fs::create_directories(dir);

    const SocConfig cfg = SocConfigBuilder()
                              .mode(SystemMode::ccpuCaccel)
                              .seed(1)
                              .numInstances(128)
                              .topologyFile(path)
                              .build();
    const auto req = harness::RunRequest::single("aes", cfg, 128);
    const fs::path flights = dir / "mega.flights.json";
    const fs::path latency = dir / "mega.latency.json";
    obs::ObsOptions obs;
    obs.flightFile = flights.string();
    obs.latencyFile = latency.string();
    obs.topN = 16;
    obs.runLabel = "mega"; // fixed label: artefacts independent of path
    const RunResult r = req.execute(obs);
    EXPECT_TRUE(r.functionallyCorrect);
    EXPECT_EQ(r.exceptions, 0u);
    EXPECT_EQ(r.totalCycles, 38512u);

    std::ifstream fin(flights), lin(latency);
    std::stringstream body;
    body << fin.rdbuf() << lin.rdbuf();
    fs::remove_all(dir);
    std::remove(path.c_str());

    const std::string artefacts = body.str();
    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const unsigned char c : artefacts) {
        digest ^= c;
        digest *= 0x100000001b3ull;
    }
    EXPECT_EQ(artefacts.size(), 14751u);
    EXPECT_EQ(digest, 0x20dc086e0b6d6544ull)
        << "mega-topology artefacts diverged from the pinned digest";
}

TEST(SocSystemTopology, BadTopologyFileIsATopologyError)
{
    SocConfig cfg = config(SystemMode::ccpuCaccel);
    cfg.topologyFile = "/nonexistent/nowhere.json";
    SocSystem soc(cfg);
    EXPECT_THROW(soc.topology(), TopologyError);
}

} // namespace
} // namespace capcheck::system
