/**
 * @file
 * The one command-line parser for every bench harness. All sweep
 * knobs — parallelism, caching, JSON output, the observability
 * artefact selectors, and the service-mode backend selectors
 * (--server, --cache-dir) — land in a single harness::SweepOptions,
 * so a flag parsed here configures SweepRunner, the capcheckd client
 * and the daemon identically. Environment defaults (CAPCHECK_SERVER,
 * CAPCHECK_CACHE_DIR, CAPCHECK_CACHE_MAX_BYTES) are applied first;
 * explicit flags win.
 *
 * Every flag is one row of benchFlags(): its spelling, whether it
 * takes a value, how the value lands in BenchOptions, and its --help
 * text. The observability artefact rows come from harness::obsSinks().
 * A flag that takes a value accepts both "--x V" and "--x=V".
 */

#ifndef CAPCHECK_BENCH_ARGS_HH
#define CAPCHECK_BENCH_ARGS_HH

#include <cstdlib>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "base/trace.hh"
#include "harness/sweep_options.hh"
#include "system/topology.hh"

namespace capcheck::bench
{

namespace detail
{
/**
 * The --topology file from the last parseOptions() call. modeConfig()
 * folds it into every SocConfig so one flag retargets a whole
 * harness's sweep without touching each request-building loop.
 */
inline std::string cliTopologyFile; // NOLINT(cert-err58-cpp)
/**
 * True when the loaded file forces a checker scheme ("capchecker" /
 * "checker_bank" rather than "auto"): such a shape can only elaborate
 * under modes with a CHERI CPU, so modeConfig() keeps the builtin
 * shape for the non-CHERI points instead of fataling mid-sweep.
 */
inline bool cliTopologyNeedsChecker = false;
} // namespace detail

/** The options every bench harness accepts. */
struct BenchOptions
{
    /** Everything the sweep backends consume, parsed in one place. */
    harness::SweepOptions sweep;

    bool quiet = false; ///< --quiet silences progress lines

    /** --topology FILE: JSON platform topology for every run. */
    std::string topology;
    /** --dump-topology[=MODE]: print canonical topology JSON, exit. */
    bool dumpTopology = false;
    /** Builtin dumped when no --topology file names one. */
    std::string dumpTopologyMode = "ccpu+caccel";
};

/** One command-line flag of the bench harnesses. */
struct BenchFlag
{
    enum class Value
    {
        none,     ///< "--x" only
        required, ///< "--x V" or "--x=V"
        optional, ///< "--x" or "--x=V"
    };

    const char *name;
    /** Short spelling ("-j"), or nullptr. */
    const char *alias;
    /** Value placeholder in the usage text ("N", "DIR"); "" for none. */
    const char *metavar;
    Value value;
    /** Apply the flag; @p v is nullptr for a flag given without one. */
    std::function<void(BenchOptions &opts, const std::string *v)> set;
    /** --help description, '\n' between lines. */
    const char *help;
};

/** Setter storing a flag's value in a SweepOptions text field. */
template <std::string harness::SweepOptions::*field>
void
sweepText(BenchOptions &o, const std::string *v)
{
    o.sweep.*field = *v;
}

/** Setter parsing a flag's value into a SweepOptions number field. */
template <auto field>
void
sweepNumber(BenchOptions &o, const std::string *v)
{
    using T = std::remove_reference_t<decltype(o.sweep.*field)>;
    o.sweep.*field = static_cast<T>(std::strtoull(v->c_str(), nullptr, 10));
}

/** Every flag, in --help order. */
inline const std::vector<BenchFlag> &
benchFlags()
{
    using V = BenchFlag::Value;
    using S = harness::SweepOptions;
    static const std::vector<BenchFlag> flags = [] {
        std::vector<BenchFlag> rows = {
            {"--jobs", "-j", "N", V::required, sweepNumber<&S::jobs>,
             "worker threads (default: all cores)"},
            {"--json-dir", nullptr, "DIR", V::required, sweepText<&S::jsonDir>,
             "write run-<hash>.json + manifest"},
            {"--no-cache", nullptr, "", V::none,
             [](BenchOptions &o, const std::string *) {
                 o.sweep.cacheEnabled = false;
             },
             "re-simulate repeated requests"},
            {"--quiet", "-q", "", V::none,
             [](BenchOptions &o, const std::string *) { o.quiet = true; },
             "no per-run progress lines on stderr"},
            {"--server", nullptr, "SOCK", V::required,
             sweepText<&S::serverSocket>,
             "submit to the capcheckd daemon at\n"
             "this Unix socket instead of\n"
             "simulating in-process (or set\n"
             "CAPCHECK_SERVER)"},
            {"--cache-dir", nullptr, "DIR", V::required,
             sweepText<&S::cacheDir>,
             "disk-backed result cache shared\n"
             "across runs and restarts (or set\n"
             "CAPCHECK_CACHE_DIR)"},
            {"--cache-max-bytes", nullptr, "N", V::required,
             sweepNumber<&S::cacheMaxBytes>,
             "LRU byte cap of the disk cache\n"
             "(default 1 GiB, 0 = unbounded)"},
            {"--trace-id", nullptr, "ID", V::required, sweepText<&S::traceId>,
             "trace id sent with remote submits\n"
             "so daemon-side spans and JSONL log\n"
             "lines join against this run (or set\n"
             "CAPCHECK_TRACE_ID)"},
        };
        // One row per observability artefact, from the sink table.
        for (const harness::ObsSink &sink : harness::obsSinks()) {
            rows.push_back({sink.flag, nullptr, sink.metavar, V::required,
                            [&sink](BenchOptions &o, const std::string *v) {
                                if (sink.dir)
                                    o.sweep.*sink.dir = *v;
                                else
                                    sweepNumber<&S::sampleInterval>(o, v);
                            },
                            sink.help});
        }
        rows.insert(rows.end(), {
            {"--topn", nullptr, "N", V::required, sweepNumber<&S::topN>,
             "slowest flights kept per run (10)"},
            {"--topology", nullptr, "FILE", V::required,
             [](BenchOptions &o, const std::string *v) { o.topology = *v; },
             "load the platform topology from a\n"
             "JSON file instead of the builtin\n"
             "shape for each mode"},
            {"--dump-topology", nullptr, "", V::optional,
             [](BenchOptions &o, const std::string *v) {
                 o.dumpTopology = true;
                 if (!v)
                     return;
                 const auto &names = system::Topology::builtinNames();
                 bool known = false;
                 for (const std::string &n : names)
                     known = known || n == *v;
                 if (!known) {
                     std::cerr << "unknown --dump-topology mode '" << *v
                               << "'; choices:";
                     for (const std::string &n : names)
                         std::cerr << " " << n;
                     std::cerr << "\n";
                     std::exit(2);
                 }
                 o.dumpTopologyMode = *v;
             },
             "print the (builtin or loaded)\n"
             "topology as canonical JSON and exit"},
            {"--debug-flags", nullptr, "LIST", V::required,
             [](BenchOptions &, const std::string *v) {
                 if (*v == "?") {
                     trace::DebugFlag::listFlags(std::cout);
                     std::exit(0);
                 }
                 trace::DebugFlag::applyList(*v);
             },
             "enable debug flags (? lists them)"},
        });
        return rows;
    }();
    return flags;
}

inline void
printUsage(const char *argv0)
{
    // Synopsis: every flag in brackets, wrapped under the program name.
    const std::string indent = "       ";
    std::string line = std::string("usage: ") + argv0;
    for (const BenchFlag &f : benchFlags()) {
        std::string item = std::string("[") + f.name;
        if (f.value == BenchFlag::Value::required)
            item += std::string(" ") + f.metavar;
        item += "]";
        if (line.size() + 1 + item.size() > 72 && line != indent) {
            std::cout << line << "\n";
            line = indent;
        } else {
            line += " ";
        }
        line += item;
    }
    std::cout << line << "\n";

    // One described entry per flag, descriptions from column 22.
    for (const BenchFlag &f : benchFlags()) {
        std::string left = f.name;
        if (f.value == BenchFlag::Value::required)
            left += std::string(" ") + f.metavar;
        std::istringstream help(f.help);
        std::string text;
        bool first = true;
        while (std::getline(help, text)) {
            std::cout << "  " << std::left << std::setw(20)
                      << (first ? left : "") << text << "\n";
            first = false;
        }
    }
}

inline BenchOptions
parseOptions(int argc, char **argv)
{
    // Honour CAPCHECK_DEBUG in every harness, not just the examples.
    trace::DebugFlag::applyEnvironment();

    BenchOptions opts;
    opts.sweep = harness::SweepOptions::fromEnvironment();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            std::exit(0);
        }
        const BenchFlag *flag = nullptr;
        bool inline_value = false;
        for (const BenchFlag &f : benchFlags()) {
            if (arg == f.name || (f.alias && arg == f.alias)) {
                flag = &f;
                break;
            }
            const std::string prefix = std::string(f.name) + "=";
            if (f.value != BenchFlag::Value::none &&
                arg.rfind(prefix, 0) == 0) {
                flag = &f;
                inline_value = true;
                break;
            }
        }
        if (!flag) {
            std::cerr << "unknown option '" << arg << "'\n";
            printUsage(argv[0]);
            std::exit(2);
        }
        std::string value;
        bool has_value = true;
        if (inline_value) {
            value = arg.substr(arg.find('=') + 1);
        } else if (flag->value == BenchFlag::Value::required) {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs an argument\n";
                std::exit(2);
            }
            value = argv[++i];
        } else {
            has_value = false;
        }
        flag->set(opts, has_value ? &value : nullptr);
    }
    if (!opts.sweep.serverSocket.empty()) {
        // Fail at the command line rather than write nothing: the
        // daemon does not produce these files.
        for (const harness::ObsSink &sink : harness::obsSinks()) {
            if (!sink.daemonWrites &&
                !harness::obsDir(opts.sweep, sink).empty()) {
                std::cerr << sink.flag << " needs an in-process run: "
                          << "capcheckd does not write it (drop "
                          << "--server / CAPCHECK_SERVER)\n";
                std::exit(2);
            }
        }
    }
    opts.sweep.progress = opts.quiet ? nullptr : &std::cerr;
    detail::cliTopologyFile = opts.topology;
    if (!opts.topology.empty() && !opts.dumpTopology) {
        // Fail at the command line, not mid-sweep: a missing or
        // malformed file is an argument error, not a simulation one.
        try {
            const system::Topology topo =
                system::Topology::loadFile(opts.topology);
            for (const system::TopologyNode &node : topo.nodes) {
                if (node.kind != "protect")
                    continue;
                const json::JsonValue *scheme =
                    node.params.get("scheme");
                if (scheme && (scheme->asString() == "capchecker" ||
                               scheme->asString() == "checker_bank"))
                    detail::cliTopologyNeedsChecker = true;
            }
        } catch (const system::TopologyError &e) {
            std::cerr << e.what() << "\n";
            std::exit(2);
        }
    }
    if (opts.dumpTopology) {
        try {
            const system::Topology topo =
                !opts.topology.empty()
                    ? system::Topology::loadFile(opts.topology)
                    : system::Topology::builtinByName(
                          opts.dumpTopologyMode);
            std::cout << topo.toJsonText();
            std::exit(0);
        } catch (const system::TopologyError &e) {
            std::cerr << e.what() << "\n";
            std::exit(2);
        }
    }
    return opts;
}

} // namespace capcheck::bench

#endif // CAPCHECK_BENCH_ARGS_HH
