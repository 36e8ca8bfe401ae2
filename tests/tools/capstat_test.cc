/**
 * @file
 * Tests for the capstat statdiff library: loading single-run and
 * merged latency artefacts, label-keyed merging, the regression diff
 * (tolerance semantics drive CI's perf gate) and the top-flights
 * table.
 */

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "statdiff.hh"

using namespace capcheck::tools;

namespace fs = std::filesystem;

namespace
{

class CapstatTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Unique per process and per case: ctest runs every case as
        // its own process, possibly in parallel with the others.
        dir = fs::temp_directory_path() /
              ("capcheck_capstat_" + std::to_string(::getpid()) + "_" +
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

    static std::string
    runDoc(const std::string &label, double p50, double p95, double p99)
    {
        std::ostringstream os;
        os << "{\"label\": \"" << label
           << "\", \"flights\": {\"endToEnd\": {\"p50\": " << p50
           << ", \"p95\": " << p95 << ", \"p99\": " << p99 << "}}}";
        return os.str();
    }

    fs::path dir;
    static inline int counter = 0;
};

} // namespace

TEST_F(CapstatTest, LoadsSingleRunArtefacts)
{
    LatencyReport report;
    ASSERT_TRUE(loadLatencyDocument(
        write("a.json", runDoc("run-a", 10, 20, 30)), report));
    ASSERT_EQ(report.runs.size(), 1u);
    EXPECT_EQ(report.runs[0].label, "run-a");
    EXPECT_EQ(report.runs[0].metric("endToEnd.p99"), 30.0);
    EXPECT_TRUE(std::isnan(report.runs[0].metric("endToEnd.nope")));
}

TEST_F(CapstatTest, MergeSortsByLabelAndLastFileWins)
{
    LatencyReport report;
    ASSERT_TRUE(loadLatencyDocument(
        write("b.json", runDoc("zeta", 1, 2, 3)), report));
    ASSERT_TRUE(loadLatencyDocument(
        write("a.json", runDoc("alpha", 4, 5, 6)), report));
    ASSERT_TRUE(loadLatencyDocument(
        write("b2.json", runDoc("zeta", 7, 8, 9)), report));

    ASSERT_EQ(report.runs.size(), 2u);
    EXPECT_EQ(report.runs[0].label, "alpha");
    EXPECT_EQ(report.runs[1].label, "zeta");
    EXPECT_EQ(report.runs[1].metric("endToEnd.p99"), 9.0);
}

TEST_F(CapstatTest, MergedJsonRoundTrips)
{
    LatencyReport report;
    ASSERT_TRUE(loadLatencyDocument(
        write("a.json", runDoc("alpha", 4, 5, 6)), report));
    ASSERT_TRUE(loadLatencyDocument(
        write("z.json", runDoc("zeta", 1, 2, 3)), report));

    const std::string merged = mergedJson(report);
    LatencyReport reloaded;
    ASSERT_TRUE(loadLatencyDocument(write("merged.json", merged),
                                    reloaded));
    ASSERT_EQ(reloaded.runs.size(), 2u);
    EXPECT_EQ(reloaded.runs[0].metric("endToEnd.p95"), 5.0);
    // Deterministic bytes: serializing again is identical.
    EXPECT_EQ(mergedJson(reloaded), merged);
}

TEST_F(CapstatTest, DiffFlagsP99RegressionsBeyondTolerance)
{
    LatencyReport baseline;
    ASSERT_TRUE(loadLatencyDocument(
        write("base.json", runDoc("run-a", 30, 38, 40)), baseline));
    LatencyReport current;
    ASSERT_TRUE(loadLatencyDocument(
        write("cur.json", runDoc("run-a", 30, 38, 44)), current));

    DiffOptions opts;
    opts.tolerancePct = 5.0; // 40 -> 44 is +10%
    const DiffResult diff = diffReports(baseline, current, opts);
    ASSERT_EQ(diff.deltas.size(), 3u);
    EXPECT_TRUE(diff.regression());
    const MetricDelta &p99 = diff.deltas.back();
    EXPECT_EQ(p99.metric, "endToEnd.p99");
    EXPECT_TRUE(p99.regression);
    EXPECT_NEAR(p99.pct, 10.0, 1e-9);

    opts.tolerancePct = 15.0;
    EXPECT_FALSE(diffReports(baseline, current, opts).regression());
}

TEST_F(CapstatTest, DiffImprovementsAndMatchesPass)
{
    LatencyReport baseline;
    ASSERT_TRUE(loadLatencyDocument(
        write("base.json", runDoc("run-a", 30, 38, 40)), baseline));
    LatencyReport current;
    ASSERT_TRUE(loadLatencyDocument(
        write("cur.json", runDoc("run-a", 25, 30, 32)), current));

    const DiffResult diff =
        diffReports(baseline, current, DiffOptions{});
    EXPECT_FALSE(diff.regression());
    for (const MetricDelta &d : diff.deltas)
        EXPECT_LT(d.pct, 0.0);
}

TEST_F(CapstatTest, DiffTracksMissingAndAddedRuns)
{
    LatencyReport baseline;
    ASSERT_TRUE(loadLatencyDocument(
        write("base.json", runDoc("gone", 1, 2, 3)), baseline));
    LatencyReport current;
    ASSERT_TRUE(loadLatencyDocument(
        write("cur.json", runDoc("fresh", 1, 2, 3)), current));

    const DiffResult diff =
        diffReports(baseline, current, DiffOptions{});
    EXPECT_TRUE(diff.deltas.empty());
    ASSERT_EQ(diff.missing.size(), 1u);
    EXPECT_EQ(diff.missing[0], "gone");
    ASSERT_EQ(diff.added.size(), 1u);
    EXPECT_EQ(diff.added[0], "fresh");
    // Coverage changes alone are not a latency regression.
    EXPECT_FALSE(diff.regression());
}

TEST_F(CapstatTest, DiffSkipsMetricsAbsentOnEitherSide)
{
    LatencyReport baseline;
    ASSERT_TRUE(loadLatencyDocument(
        write("base.json",
              "{\"label\": \"a\", \"flights\": {}}"),
        baseline));
    LatencyReport current;
    ASSERT_TRUE(loadLatencyDocument(
        write("cur.json", runDoc("a", 10, 20, 30)), current));

    const DiffResult diff =
        diffReports(baseline, current, DiffOptions{});
    EXPECT_TRUE(diff.deltas.empty());
    EXPECT_FALSE(diff.regression());
}

TEST_F(CapstatTest, ZeroBaselineCountsAsRegressionWhenCurrentIsSlower)
{
    LatencyReport baseline;
    ASSERT_TRUE(loadLatencyDocument(
        write("base.json", runDoc("a", 0, 0, 0)), baseline));
    LatencyReport current;
    ASSERT_TRUE(loadLatencyDocument(
        write("cur.json", runDoc("a", 5, 5, 5)), current));

    EXPECT_TRUE(
        diffReports(baseline, current, DiffOptions{}).regression());
}

TEST_F(CapstatTest, RejectsMalformedDocuments)
{
    LatencyReport report;
    std::string error;
    EXPECT_FALSE(loadLatencyDocument(
        write("bad.json", "{\"nope\": 1}"), report, &error));
    EXPECT_NE(error.find("label"), std::string::npos);
    EXPECT_FALSE(loadLatencyDocument(
        write("syntax.json", "{"), report, &error));
    EXPECT_FALSE(
        loadLatencyDocument((dir / "absent.json").string(), report,
                            &error));
}

TEST_F(CapstatTest, PrintDiffReportsVerdictPerMetric)
{
    LatencyReport baseline;
    ASSERT_TRUE(loadLatencyDocument(
        write("base.json", runDoc("run-a", 30, 38, 40)), baseline));
    LatencyReport current;
    ASSERT_TRUE(loadLatencyDocument(
        write("cur.json", runDoc("run-a", 30, 38, 80)), current));

    DiffOptions opts;
    std::ostringstream os;
    const bool regressed =
        printDiff(os, diffReports(baseline, current, opts), opts);
    EXPECT_TRUE(regressed);
    EXPECT_NE(os.str().find("REGRESSION"), std::string::npos);
    EXPECT_NE(os.str().find("FAIL"), std::string::npos);
}

TEST_F(CapstatTest, TopFlightsTableRendersHops)
{
    const std::string doc =
        "{\"label\": \"demo\", \"topN\": 2, \"issued\": 2, "
        "\"completed\": 2, \"denied\": 1, \"flights\": ["
        "{\"flight\": 3, \"task\": 1, \"cmd\": \"read\", "
        "\"addr\": \"0xbeef\", \"cache\": \"miss\", \"denied\": true, "
        "\"hops\": {\"xbarWait\": 2, \"check\": 60, \"drain\": 1, "
        "\"mem\": 0}, \"endToEnd\": 63}]}";
    std::ostringstream os;
    std::string error;
    ASSERT_TRUE(printTopFlights(os, write("f.json", doc), 0, &error))
        << error;
    EXPECT_NE(os.str().find("demo"), std::string::npos);
    EXPECT_NE(os.str().find("0xbeef"), std::string::npos);
    EXPECT_NE(os.str().find("63"), std::string::npos);
    EXPECT_NE(os.str().find("yes"), std::string::npos);
}
