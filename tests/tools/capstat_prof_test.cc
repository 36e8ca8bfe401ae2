/**
 * @file
 * Tests for the capstat prof library: loading single-run and merged
 * host-time profile artefacts, label-keyed merging, the domain-share
 * diff (percentage-point tolerance drives CI's attribution gate) and
 * the file-naming provenance in one-sided-label messages. A
 * round-trip test feeds a real RunProfile's json() through the
 * loader, pinning the producer and consumer to the same schema.
 */

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/prof.hh"
#include "prof.hh"
#include "statdiff.hh"

using namespace capcheck;
using namespace capcheck::tools;

namespace fs = std::filesystem;

namespace
{

class CapstatProfTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Unique per process and per case: ctest runs every case as
        // its own process, possibly in parallel with the others.
        dir = fs::temp_directory_path() /
              ("capcheck_capstat_prof_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter++));
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string
    write(const std::string &name, const std::string &body)
    {
        const fs::path path = dir / name;
        std::ofstream os(path);
        os << body;
        return path.string();
    }

    /** A profile doc whose domains carry the given shares of a 1 s
     *  wall. The final domain is "other" absorbing the remainder. */
    static std::string
    profDoc(const std::string &label,
            const std::vector<std::pair<std::string, double>> &shares)
    {
        const std::uint64_t wall = 1000000000ull;
        double used = 0;
        std::ostringstream os;
        os << "{\"schema\": \"capcheck.prof.v1\", \"label\": \""
           << label << "\", \"wallNanos\": "
           << wall << ", \"domains\": [";
        for (const auto &[name, share] : shares) {
            os << "{\"domain\": \"" << name << "\", \"selfNanos\": "
               << static_cast<std::uint64_t>(share * wall)
               << ", \"totalNanos\": "
               << static_cast<std::uint64_t>(share * wall)
               << ", \"calls\": 10, \"share\": " << share << "},";
            used += share;
        }
        os << "{\"domain\": \"other\", \"selfNanos\": "
           << static_cast<std::uint64_t>((1 - used) * wall)
           << ", \"totalNanos\": "
           << static_cast<std::uint64_t>((1 - used) * wall)
           << ", \"calls\": 0, \"share\": " << (1 - used) << "}]"
           << ", \"sites\": [{\"domain\": \"" << shares[0].first
           << "\", \"name\": \"hot\", \"selfNanos\": 1, "
              "\"totalNanos\": 1, \"calls\": 1}]}";
        return os.str();
    }

    fs::path dir;
    static inline int counter = 0;
};

} // namespace

TEST_F(CapstatProfTest, LoadsSingleRunArtefacts)
{
    ProfReport report;
    ASSERT_TRUE(loadProfDocument(
        write("a.prof.json", profDoc("run-a", {{"capcheck", 0.4}})),
        report));
    ASSERT_EQ(report.runs.size(), 1u);
    EXPECT_EQ(report.runs[0].label, "run-a");
    EXPECT_EQ(report.runs[0].wallNanos, 1000000000ull);
    EXPECT_DOUBLE_EQ(report.runs[0].domainShare("capcheck"), 0.4);
    EXPECT_TRUE(std::isnan(report.runs[0].domainShare("absent")));
    ASSERT_EQ(report.runs[0].sites.size(), 1u);
    EXPECT_EQ(report.runs[0].sites[0].name, "hot");
}

TEST_F(CapstatProfTest, MergeKeysRunsByLabelAndRoundTrips)
{
    ProfReport report;
    ASSERT_TRUE(loadProfDocument(
        write("a.prof.json", profDoc("run-a", {{"sim", 0.2}})),
        report));
    ASSERT_TRUE(loadProfDocument(
        write("b.prof.json", profDoc("run-b", {{"sim", 0.3}})),
        report));
    // Same label again: last file wins, no duplicate.
    ASSERT_TRUE(loadProfDocument(
        write("a2.prof.json", profDoc("run-a", {{"sim", 0.5}})),
        report));
    ASSERT_EQ(report.runs.size(), 2u);
    EXPECT_DOUBLE_EQ(report.find("run-a")->domainShare("sim"), 0.5);

    // Merged document loads back identically.
    const std::string merged = mergedProfJson(report);
    ProfReport reload;
    ASSERT_TRUE(loadProfDocument(write("merged.json", merged), reload));
    ASSERT_EQ(reload.runs.size(), 2u);
    EXPECT_DOUBLE_EQ(reload.find("run-b")->domainShare("sim"), 0.3);
    EXPECT_EQ(mergedProfJson(reload), merged);
}

TEST_F(CapstatProfTest, DiffGatesOnShareGrowthInPoints)
{
    ProfReport baseline;
    ASSERT_TRUE(loadProfDocument(
        write("base.json",
              profDoc("run-a", {{"capcheck", 0.10}, {"sim", 0.50}})),
        baseline));
    ProfReport current;
    ASSERT_TRUE(loadProfDocument(
        write("cur.json",
              profDoc("run-a", {{"capcheck", 0.16}, {"sim", 0.48}})),
        current));

    ProfDiffOptions opts;
    opts.tolerancePts = 3.0;
    const ProfDiffResult diff =
        diffProfReports(baseline, current, opts);
    EXPECT_TRUE(diff.regression());
    bool sawCapcheck = false;
    for (const ProfDelta &d : diff.deltas) {
        if (d.domain == "capcheck") {
            sawCapcheck = true;
            EXPECT_NEAR(d.deltaPts, 6.0, 1e-9);
            EXPECT_TRUE(d.regression);
        }
        if (d.domain == "sim") {
            EXPECT_FALSE(d.regression); // shrinking never regresses
        }
    }
    EXPECT_TRUE(sawCapcheck);

    // A looser tolerance passes.
    opts.tolerancePts = 10.0;
    EXPECT_FALSE(
        diffProfReports(baseline, current, opts).regression());
}

TEST_F(CapstatProfTest, DiffCatchesBrandNewDomains)
{
    ProfReport baseline;
    ASSERT_TRUE(loadProfDocument(
        write("base.json", profDoc("run-a", {{"sim", 0.5}})),
        baseline));
    ProfReport current;
    ASSERT_TRUE(loadProfDocument(
        write("cur.json",
              profDoc("run-a", {{"sim", 0.5}, {"harness", 0.2}})),
        current));

    ProfDiffOptions opts;
    opts.tolerancePts = 5.0;
    const ProfDiffResult diff =
        diffProfReports(baseline, current, opts);
    // "harness" was absent from the baseline (share 0) and now eats
    // 20% of the run: that is a regression, not a skipped comparison.
    EXPECT_TRUE(diff.regression());
}

TEST_F(CapstatProfTest, OneSidedLabelsNameTheFiles)
{
    ProfReport baseline;
    const std::string basePath =
        write("base.json", profDoc("gone", {{"sim", 0.5}}));
    ASSERT_TRUE(loadProfDocument(basePath, baseline));
    ProfReport current;
    const std::string curPath =
        write("cur.json", profDoc("fresh", {{"sim", 0.5}}));
    ASSERT_TRUE(loadProfDocument(curPath, current));

    const ProfDiffResult diff =
        diffProfReports(baseline, current, ProfDiffOptions{});
    ASSERT_EQ(diff.missing.size(), 1u);
    EXPECT_EQ(diff.missing[0], "gone");
    ASSERT_EQ(diff.added.size(), 1u);
    EXPECT_EQ(diff.added[0], "fresh");

    std::ostringstream os;
    EXPECT_FALSE(printProfDiff(os, diff, ProfDiffOptions{}));
    const std::string text = os.str();
    // The messages name the label, the file it came from, and the
    // file(s) the counterpart was expected in.
    EXPECT_NE(text.find("missing from current: 'gone'"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("(baselined in " + basePath +
                        "; expected in " + curPath + ")"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("new run (no baseline): 'fresh'"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("(found in " + curPath +
                        "; no counterpart in " + basePath + ")"),
              std::string::npos)
        << text;
}

TEST_F(CapstatProfTest, LatencyDiffAlsoNamesTheFiles)
{
    // The same provenance contract on the latency side (capstat diff).
    LatencyReport baseline;
    const std::string basePath = write(
        "lat_base.json",
        "{\"label\": \"gone\", \"flights\": {\"endToEnd\": "
        "{\"p99\": 5}}}");
    ASSERT_TRUE(loadLatencyDocument(basePath, baseline));
    LatencyReport current;
    const std::string curPath = write(
        "lat_cur.json",
        "{\"label\": \"fresh\", \"flights\": {\"endToEnd\": "
        "{\"p99\": 5}}}");
    ASSERT_TRUE(loadLatencyDocument(curPath, current));

    std::ostringstream os;
    printDiff(os, diffReports(baseline, current, DiffOptions{}),
              DiffOptions{});
    const std::string text = os.str();
    EXPECT_NE(text.find("missing from current: 'gone' (baselined in " +
                        basePath + "; expected in " + curPath + ")"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("new run (no baseline): 'fresh' (found in " +
                        curPath + "; no counterpart in " + basePath +
                        ")"),
              std::string::npos)
        << text;
}

TEST_F(CapstatProfTest, RejectsMalformedDocuments)
{
    ProfReport report;
    std::string error;
    EXPECT_FALSE(loadProfDocument(
        write("bad.json", "[1, 2]"), report, &error));
    EXPECT_NE(error.find("bad.json"), std::string::npos);
    EXPECT_FALSE(loadProfDocument(
        write("nolabel.json", "{\"wallNanos\": 5}"), report, &error));
    EXPECT_FALSE(loadProfDocument(
        (dir / "absent.json").string(), report, &error));
}

TEST_F(CapstatProfTest, RealProfilerOutputLoads)
{
    prof::RunProfile profile;
    {
        const prof::ProfileSession session(profile);
        PROF_SCOPE("t.capstat", "work");
        // A little real work so shares are nonzero.
        volatile unsigned sink = 0;
        for (unsigned i = 0; i < 100000; ++i)
            sink = sink + i;
    }

    const std::string path = dir / "real.prof.json";
    {
        std::ofstream os(path);
        os << profile.json("kmp tasks=4");
    }
    ProfReport report;
    std::string error;
    ASSERT_TRUE(loadProfDocument(path, report, &error)) << error;
    ASSERT_EQ(report.runs.size(), 1u);
    const ProfRun &run = report.runs[0];
    EXPECT_EQ(run.label, "kmp tasks=4");
    EXPECT_EQ(run.wallNanos, profile.wallNanos());
    // Self-diffing a profile is always a PASS at tolerance 0.
    ProfDiffOptions opts;
    opts.tolerancePts = 0.0;
    EXPECT_FALSE(diffProfReports(report, report, opts).regression());
}
