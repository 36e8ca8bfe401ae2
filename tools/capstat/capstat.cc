/**
 * @file
 * capstat: inspect and gate on the flight-recorder latency artefacts.
 *
 *   capstat report  LATENCY.json...           per-run p50/p95/p99 table
 *   capstat merge   -o OUT LATENCY.json...    merge runs into one report
 *   capstat diff    BASELINE CURRENT          compare; exit 1 on
 *                   [--tolerance PCT]         p50/p95/p99 regression
 *                   [--metric PATH]...
 *   capstat top     FLIGHTS.json [-n N]       slowest-requests table
 *   capstat live    SOCKET [--interval MS]    live capcheckd dashboard
 *                   [--count N | --once]      (queue/cache/span table)
 *                   [--latency-out FILE]
 *   capstat prof report PROF.json...          host-time attribution
 *                   [--sites N]               tables per profiled run
 *   capstat prof merge -o OUT PROF.json...    merge profiles
 *   capstat prof diff BASELINE CURRENT...     compare domain shares;
 *                   [--tolerance PTS]         exit 1 when a domain
 *                                             grows > PTS points
 *
 * Both report and diff accept single-run artefacts (run-*.latency.json)
 * and merged reports interchangeably; runs are keyed by their embedded
 * label, so a committed baseline keeps matching after config-hash
 * changes. `capstat live --latency-out` writes the daemon's span
 * histograms as a service-latency document that diff/report consume
 * like any other latency artefact — daemon p95 gates in CI ride on
 * that. `capstat prof` does the same for the host-time self-profiler
 * artefacts (run-*.prof.json from --prof-out), gating on share-of-run
 * percentage points instead of latency percent.
 * Exit codes: 0 ok, 1 regression, 2 usage/IO error.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "live.hh"
#include "prof.hh"
#include "statdiff.hh"

namespace
{

using namespace capcheck::tools;

void
usage(std::ostream &os)
{
    os << "usage: capstat report LATENCY.json...\n"
          "       capstat merge -o OUT.json LATENCY.json...\n"
          "       capstat diff [--tolerance PCT] [--metric PATH]...\n"
          "                    BASELINE.json CURRENT.json...\n"
          "       capstat top FLIGHTS.json [-n N]\n"
          "       capstat live SOCKET [--interval MS] [--count N]\n"
          "                    [--once] [--latency-out FILE]\n"
          "                    [--label LABEL]\n"
          "       capstat prof report [--sites N] PROF.json...\n"
          "       capstat prof merge -o OUT.json PROF.json...\n"
          "       capstat prof diff [--tolerance PTS]\n"
          "                    BASELINE.json CURRENT.json...\n";
}

int
fail(const std::string &message)
{
    std::cerr << "capstat: " << message << "\n";
    return 2;
}

bool
loadAll(const std::vector<std::string> &paths, LatencyReport &report)
{
    for (const std::string &path : paths) {
        std::string error;
        if (!loadLatencyDocument(path, report, &error)) {
            fail(error);
            return false;
        }
    }
    return true;
}

int
cmdReport(const std::vector<std::string> &paths)
{
    if (paths.empty())
        return fail("report needs at least one latency artefact");
    LatencyReport report;
    if (!loadAll(paths, report))
        return 2;
    printReport(std::cout, report);
    return 0;
}

int
cmdMerge(const std::vector<std::string> &args)
{
    std::string out;
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "-o" || args[i] == "--out") {
            if (i + 1 >= args.size())
                return fail("-o needs a file argument");
            out = args[++i];
        } else {
            paths.push_back(args[i]);
        }
    }
    if (paths.empty())
        return fail("merge needs at least one latency artefact");
    LatencyReport report;
    if (!loadAll(paths, report))
        return 2;
    const std::string doc = mergedJson(report);
    if (out.empty()) {
        std::cout << doc;
        return 0;
    }
    std::ofstream os(out);
    if (!os)
        return fail("cannot write '" + out + "'");
    os << doc;
    return 0;
}

int
cmdDiff(const std::vector<std::string> &args)
{
    DiffOptions opts;
    std::vector<std::string> metrics;
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--tolerance") {
            if (i + 1 >= args.size())
                return fail("--tolerance needs a percentage");
            opts.tolerancePct = std::atof(args[++i].c_str());
        } else if (args[i].rfind("--tolerance=", 0) == 0) {
            opts.tolerancePct =
                std::atof(args[i].c_str() + std::strlen("--tolerance="));
        } else if (args[i] == "--metric") {
            if (i + 1 >= args.size())
                return fail("--metric needs a dotted path");
            metrics.push_back(args[++i]);
        } else if (args[i].rfind("--metric=", 0) == 0) {
            metrics.push_back(
                args[i].substr(std::strlen("--metric=")));
        } else {
            paths.push_back(args[i]);
        }
    }
    if (paths.size() < 2)
        return fail("diff needs a baseline and at least one current "
                    "artefact");
    if (!metrics.empty())
        opts.metrics = std::move(metrics);

    LatencyReport baseline;
    std::string error;
    if (!loadLatencyDocument(paths.front(), baseline, &error))
        return fail(error);
    LatencyReport current;
    if (!loadAll({paths.begin() + 1, paths.end()}, current))
        return 2;

    return printDiff(std::cout, diffReports(baseline, current, opts),
                     opts)
               ? 1
               : 0;
}

int
cmdLive(const std::vector<std::string> &args)
{
    LiveOptions opts;
    std::string error;
    if (!parseLiveArgs(args, opts, &error))
        return fail(error);
    return runLive(std::cout, opts);
}

int
cmdTop(const std::vector<std::string> &args)
{
    unsigned limit = 0;
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "-n" || args[i] == "--limit") {
            if (i + 1 >= args.size())
                return fail("-n needs a count");
            limit = static_cast<unsigned>(std::atoi(args[++i].c_str()));
        } else {
            paths.push_back(args[i]);
        }
    }
    if (paths.size() != 1)
        return fail("top needs exactly one flights artefact");
    std::string error;
    if (!printTopFlights(std::cout, paths.front(), limit, &error))
        return fail(error);
    return 0;
}

bool
loadAllProf(const std::vector<std::string> &paths, ProfReport &report)
{
    for (const std::string &path : paths) {
        std::string error;
        if (!loadProfDocument(path, report, &error)) {
            fail(error);
            return false;
        }
    }
    return true;
}

int
cmdProfReport(const std::vector<std::string> &args)
{
    unsigned sites = 10;
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--sites") {
            if (i + 1 >= args.size())
                return fail("--sites needs a count");
            sites = static_cast<unsigned>(std::atoi(args[++i].c_str()));
        } else if (args[i].rfind("--sites=", 0) == 0) {
            sites = static_cast<unsigned>(
                std::atoi(args[i].c_str() + std::strlen("--sites=")));
        } else {
            paths.push_back(args[i]);
        }
    }
    if (paths.empty())
        return fail("prof report needs at least one profile artefact");
    ProfReport report;
    if (!loadAllProf(paths, report))
        return 2;
    printProfReport(std::cout, report, sites);
    return 0;
}

int
cmdProfMerge(const std::vector<std::string> &args)
{
    std::string out;
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "-o" || args[i] == "--out") {
            if (i + 1 >= args.size())
                return fail("-o needs a file argument");
            out = args[++i];
        } else {
            paths.push_back(args[i]);
        }
    }
    if (paths.empty())
        return fail("prof merge needs at least one profile artefact");
    ProfReport report;
    if (!loadAllProf(paths, report))
        return 2;
    const std::string doc = mergedProfJson(report);
    if (out.empty()) {
        std::cout << doc;
        return 0;
    }
    std::ofstream os(out);
    if (!os)
        return fail("cannot write '" + out + "'");
    os << doc;
    return 0;
}

int
cmdProfDiff(const std::vector<std::string> &args)
{
    ProfDiffOptions opts;
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--tolerance") {
            if (i + 1 >= args.size())
                return fail("--tolerance needs percentage points");
            opts.tolerancePts = std::atof(args[++i].c_str());
        } else if (args[i].rfind("--tolerance=", 0) == 0) {
            opts.tolerancePts =
                std::atof(args[i].c_str() + std::strlen("--tolerance="));
        } else {
            paths.push_back(args[i]);
        }
    }
    if (paths.size() < 2)
        return fail("prof diff needs a baseline and at least one "
                    "current artefact");

    ProfReport baseline;
    std::string error;
    if (!loadProfDocument(paths.front(), baseline, &error))
        return fail(error);
    ProfReport current;
    if (!loadAllProf({paths.begin() + 1, paths.end()}, current))
        return 2;

    return printProfDiff(std::cout,
                         diffProfReports(baseline, current, opts),
                         opts)
               ? 1
               : 0;
}

int
cmdProf(const std::vector<std::string> &args)
{
    if (args.empty())
        return fail("prof needs a subcommand: report, merge or diff");
    const std::string sub = args.front();
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (sub == "report")
        return cmdProfReport(rest);
    if (sub == "merge")
        return cmdProfMerge(rest);
    if (sub == "diff")
        return cmdProfDiff(rest);
    return fail("unknown prof subcommand '" + sub + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(std::cerr);
        return 2;
    }
    const std::string cmd = argv[1];
    const std::vector<std::string> args(argv + 2, argv + argc);

    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        usage(std::cout);
        return 0;
    }
    if (cmd == "report")
        return cmdReport(args);
    if (cmd == "merge")
        return cmdMerge(args);
    if (cmd == "diff")
        return cmdDiff(args);
    if (cmd == "top")
        return cmdTop(args);
    if (cmd == "live")
        return cmdLive(args);
    if (cmd == "prof")
        return cmdProf(args);

    usage(std::cerr);
    return 2;
}
