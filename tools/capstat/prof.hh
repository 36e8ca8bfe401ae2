/**
 * @file
 * Library behind `capstat prof`: loads the host-time self-profiler
 * artefacts the sweep harnesses write (run-<hash>.prof.json, schema
 * capcheck.prof.v1, single-run or merged multi-run documents), merges
 * them keyed by run label, renders per-domain/per-site attribution
 * tables, and diffs two profiles domain-by-domain on share-of-wall so
 * CI can gate on host-time attribution drift.
 *
 * Shares are compared in percentage points (a domain moving from 10%
 * to 13% of the run is +3.0pts) rather than relative percent — host
 * profiles are noisy at the small-domain tail and relative deltas
 * there would gate on jitter.
 */

#ifndef CAPCHECK_TOOLS_CAPSTAT_PROF_HH
#define CAPCHECK_TOOLS_CAPSTAT_PROF_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace capcheck::tools
{

/** One domain row of a profile ("capcheck", "sim", ... "other"). */
struct ProfDomain
{
    std::string domain;
    std::uint64_t selfNanos = 0;
    std::uint64_t totalNanos = 0;
    std::uint64_t calls = 0;
    /** Share of the run's wall time, 0..1, as recorded. */
    double share = 0;
};

/** One instrumented site row ("capcheck" / "table.lookup"). */
struct ProfSite
{
    std::string domain;
    std::string name;
    std::uint64_t selfNanos = 0;
    std::uint64_t totalNanos = 0;
    std::uint64_t calls = 0;
    /** Calls that read the clock. The rest were sampled out (their
     *  time is estimated) or sat in a scope of the same domain. */
    std::uint64_t timedCalls = 0;
};

/** One run's host-time profile. */
struct ProfRun
{
    std::string label;
    std::uint64_t wallNanos = 0;
    std::vector<ProfDomain> domains;
    std::vector<ProfSite> sites;

    /** File this run was loaded from; "" for in-memory runs. */
    std::string source;

    /** Share of @p domain (0..1); NaN when the domain is absent. */
    double domainShare(const std::string &domain) const;
};

/** A set of profiled runs, unique and sorted by label. */
struct ProfReport
{
    std::vector<ProfRun> runs;

    /** Every file loaded into this report, in load order. */
    std::vector<std::string> sources;

    const ProfRun *find(const std::string &label) const;
};

/**
 * Load @p path into @p report. Accepts either a single-run profile
 * (schema capcheck.prof.v1: {"label", "wallNanos", "domains",
 * "sites"}) or a merged report ({"runs": [...]}). Runs
 * merge into the existing report; a duplicate label overwrites the
 * earlier entry (last file wins).
 * @return false with a one-line @p error on parse/shape problems.
 */
bool loadProfDocument(const std::string &path, ProfReport &report,
                      std::string *error = nullptr);

/** Serialize @p report as a merged document (deterministic bytes). */
std::string mergedProfJson(const ProfReport &report);

/** One compared domain of one run. */
struct ProfDelta
{
    std::string label;
    std::string domain;
    /** Shares of wall time, 0..1. */
    double baselineShare = 0;
    double currentShare = 0;
    /** Share change in percentage points (+ = domain grew). */
    double deltaPts = 0;
    bool regression = false;
};

struct ProfDiffOptions
{
    /** Allowed share growth, in percentage points of the run's wall
     *  time, before a domain counts as regressed. */
    double tolerancePts = 3.0;
};

struct ProfDiffResult
{
    std::vector<ProfDelta> deltas;
    /** Labels in the baseline with no counterpart in current. */
    std::vector<std::string> missing;
    /** Labels in current with no baseline (informational). */
    std::vector<std::string> added;

    /** @{ Parallel to missing/added: source file of each label. */
    std::vector<std::string> missingSources;
    std::vector<std::string> addedSources;
    /** @} */

    /** @{ Files the two sides were loaded from. */
    std::vector<std::string> baselineFiles;
    std::vector<std::string> currentFiles;
    /** @} */

    bool regression() const;
};

/** Compare @p current against @p baseline label-by-label. Every
 *  domain present on either side is compared (absent = share 0, so a
 *  brand-new domain eating 10% of the run is caught). */
ProfDiffResult diffProfReports(const ProfReport &baseline,
                               const ProfReport &current,
                               const ProfDiffOptions &opts);

/** Human-readable diff table; returns ProfDiffResult::regression(). */
bool printProfDiff(std::ostream &os, const ProfDiffResult &diff,
                   const ProfDiffOptions &opts);

/** Per-run domain attribution tables (self ms, share, calls), plus a
 *  top-sites table per run when site rows are present, with each
 *  site's timed calls (@p top_sites trims it; 0 = all sites). */
void printProfReport(std::ostream &os, const ProfReport &report,
                     unsigned top_sites = 10);

} // namespace capcheck::tools

#endif // CAPCHECK_TOOLS_CAPSTAT_PROF_HH
