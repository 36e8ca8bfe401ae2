/**
 * @file
 * Library behind the capstat CLI: loads the latency-attribution JSON
 * artefacts the flight recorder writes (single-run documents or merged
 * multi-run reports), merges them keyed by run label, and diffs two
 * reports metric-by-metric with a percentage tolerance so CI can gate
 * on latency regressions (p99 first and foremost).
 *
 * Everything is keyed by the human-stable run label embedded in the
 * artefacts — not by config hash — so a committed baseline survives
 * hash-affecting config refactors.
 */

#ifndef CAPCHECK_TOOLS_CAPSTAT_STATDIFF_HH
#define CAPCHECK_TOOLS_CAPSTAT_STATDIFF_HH

#include <ostream>
#include <string>
#include <vector>

#include "base/json_value.hh"

namespace capcheck::tools
{

/** One run's latency metrics: the artefact's "flights" stat tree. */
struct RunMetrics
{
    std::string label;
    json::JsonValue flights;

    /** File this run was loaded from; "" for in-memory runs. Used by
     *  diff error messages to say where a missing label came from. */
    std::string source;

    /** Metric by dotted path under "flights" (e.g. "endToEnd.p99");
     *  NaN when the path is absent. */
    double metric(const std::string &path) const;
};

/** A set of runs, unique and sorted by label. */
struct LatencyReport
{
    std::vector<RunMetrics> runs;

    /** Every file loaded into this report, in load order — the set of
     *  places a label could have been expected to appear. */
    std::vector<std::string> sources;

    const RunMetrics *find(const std::string &label) const;
};

/**
 * Load @p path into @p report. Accepts either a single-run latency
 * artefact ({"label": ..., "flights": {...}}) or a merged report
 * ({"runs": [...]}). Runs merge into the existing report; a duplicate
 * label overwrites the earlier entry (last file wins).
 * @return false with a one-line @p error on parse/shape problems.
 */
bool loadLatencyDocument(const std::string &path, LatencyReport &report,
                         std::string *error = nullptr);

/** Serialize @p report as a merged document (deterministic bytes). */
std::string mergedJson(const LatencyReport &report);

/** One compared metric of one run. */
struct MetricDelta
{
    std::string label;
    std::string metric;
    double baseline = 0;
    double current = 0;
    /** Percent change, current vs baseline (+ = slower). */
    double pct = 0;
    bool regression = false;
};

struct DiffOptions
{
    /** Allowed percent increase before a metric counts as regressed. */
    double tolerancePct = 5.0;

    /** Dotted metric paths under "flights" to compare. */
    std::vector<std::string> metrics = {
        "endToEnd.p50",
        "endToEnd.p95",
        "endToEnd.p99",
    };
};

struct DiffResult
{
    std::vector<MetricDelta> deltas;
    /** Labels in the baseline with no counterpart in current. */
    std::vector<std::string> missing;
    /** Labels in current with no baseline (informational). */
    std::vector<std::string> added;

    /** @{ Parallel to missing/added: the file each label was loaded
     *  from ("" when untracked). */
    std::vector<std::string> missingSources;
    std::vector<std::string> addedSources;
    /** @} */

    /** @{ Files the two sides were loaded from, so the "missing"
     *  message can name where the label was expected. */
    std::vector<std::string> baselineFiles;
    std::vector<std::string> currentFiles;
    /** @} */

    bool regression() const;
};

/** Compare @p current against @p baseline label-by-label. */
DiffResult diffReports(const LatencyReport &baseline,
                       const LatencyReport &current,
                       const DiffOptions &opts);

/** Human-readable diff table; returns DiffResult::regression(). */
bool printDiff(std::ostream &os, const DiffResult &diff,
               const DiffOptions &opts);

/** Per-run latency summary table (p50/p95/p99 + hop means). */
void printReport(std::ostream &os, const LatencyReport &report);

/**
 * Print the top-N-slowest-flights table of one flights.json artefact.
 * @p limit trims the table (0 = all recorded flights).
 * @return false with @p error when the file does not parse.
 */
bool printTopFlights(std::ostream &os, const std::string &path,
                     unsigned limit, std::string *error = nullptr);

} // namespace capcheck::tools

#endif // CAPCHECK_TOOLS_CAPSTAT_STATDIFF_HH
