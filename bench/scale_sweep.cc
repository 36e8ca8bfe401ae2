/**
 * @file
 * Scaling sweep over generated hierarchical topologies: 8 -> 128
 * accelerators under each protection scheme (none, shared capchecker,
 * banked checkers, IOMMU, IOPMP), every point running on a
 * capgen-generated two-level crossbar tree with interleaved memory
 * channels. This is the paper's scaling argument end-to-end: the
 * capability schemes keep every task functionally correct at 128
 * masters while the fixed-region IOPMP saturates its comparators and
 * starts denying legitimate DMA.
 *
 * Usage: scale_sweep [--jobs N] [--json-dir DIR] [--no-cache]
 *                    [--quiet] [--quick] [--out FILE]
 *                    [--topo-dir DIR]
 *
 * --out writes a BENCH_scale.json document: one record per sweep
 * point with simulated cycles, DMA beats, exception counts and the
 * run label. Every number is simulated time, so the file is
 * byte-identical at any --jobs; the generated topology files land in
 * --topo-dir (default /tmp/capcheck-scale-topos) so the labels that
 * embed their paths are stable too.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/table.hh"
#include "bench/common.hh"
#include "system/topogen.hh"

using namespace capcheck;
using system::SystemMode;

namespace
{

struct SchemePoint
{
    const char *name;   ///< scheme label in the report
    const char *scheme; ///< protect-node scheme param
    SystemMode mode;    ///< system mode the point runs under
    /** A scheme that cannot protect at scale is allowed to deny
     *  legitimate DMA (the paper's point); the others must stay
     *  functionally correct at every accelerator count. */
    bool mayDeny;
};

const SchemePoint schemes[] = {
    // The capability checkers need CHERI-aware accelerators (object
    // metadata on every beat, mode ccpu+caccel); IOMMU/IOPMP protect
    // unmodified accelerators by address alone (mode ccpu+accel).
    {"none", "none", SystemMode::cpuAccel, false},
    {"shared", "capchecker", SystemMode::ccpuCaccel, false},
    {"banked", "checker_bank", SystemMode::ccpuCaccel, false},
    {"iommu", "iommu", SystemMode::ccpuAccel, false},
    {"iopmp", "iopmp", SystemMode::ccpuAccel, true},
};

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out;
    std::string topo_dir = "/tmp/capcheck-scale-topos";
    std::vector<char *> passthrough;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = i > 0 ? argv[i] : "";
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--out") {
            if (i + 1 >= argc) {
                std::cerr << "--out needs an argument\n";
                return 2;
            }
            out = argv[++i];
        } else if (arg == "--topo-dir") {
            if (i + 1 >= argc) {
                std::cerr << "--topo-dir needs an argument\n";
                return 2;
            }
            topo_dir = argv[++i];
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    const auto opts = bench::parseOptions(
        static_cast<int>(passthrough.size()), passthrough.data());
    bench::Sweeper runner(opts.sweep);

    bench::printHeader("Protection scaling sweep",
                       "Sec. 6 scaling, generated topologies");

    std::vector<unsigned> counts = {8, 16, 32, 64, 128};
    if (quick)
        counts = {8, 32};

    std::error_code ec;
    std::filesystem::create_directories(topo_dir, ec);
    if (ec) {
        std::cerr << "scale_sweep: cannot create '" << topo_dir
                  << "': " << ec.message() << "\n";
        return 2;
    }

    // Generate (and persist) one two-level topology per sweep point.
    // The graph depends only on (accels, scheme), so re-runs rewrite
    // identical files and the request labels stay stable.
    struct Point
    {
        const SchemePoint *scheme;
        unsigned accels;
    };
    std::vector<Point> points;
    std::vector<harness::RunRequest> requests;
    for (const SchemePoint &scheme : schemes) {
        for (const unsigned accels : counts) {
            system::TopoGenParams params;
            params.accels = accels;
            params.levels = 2;
            params.fanout = 4;
            params.channels = 2;
            params.banks = std::string(scheme.scheme) == "checker_bank"
                               ? 4
                               : 0;
            params.scheme = scheme.scheme;
            params.seed = 42;
            const std::string path = topo_dir + "/scale-" +
                                     scheme.name + "-a" +
                                     std::to_string(accels) + ".json";
            {
                std::ofstream os(path);
                if (!os) {
                    std::cerr << "scale_sweep: cannot write '" << path
                              << "'\n";
                    return 2;
                }
                os << system::generateTopology(params).toJsonText();
            }
            // All accelerators concurrent (one functional unit per
            // task): waves only form when a protection resource —
            // the shared capability table, IOPMP comparators — runs
            // out, which is exactly the scaling effect under test.
            const system::SocConfig cfg =
                system::SocConfigBuilder()
                    .mode(scheme.mode)
                    .seed(1)
                    .numInstances(accels)
                    .topologyFile(path)
                    .build();
            points.push_back(Point{&scheme, accels});
            requests.push_back(
                harness::RunRequest::single("aes", cfg, accels));
        }
    }

    const auto outcomes = runner.run(requests, "scale_sweep");

    TextTable table(
        {"Scheme", "Accels", "Cycles", "DMA beats", "Exceptions",
         "Correct"});
    std::uint64_t unexpected_failures = 0;
    std::ostringstream doc;
    doc << "{\n  \"points\": [\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Point &point = points[i];
        const system::RunResult &res = outcomes[i].result;
        const bool ok = res.functionallyCorrect;
        if (!ok && !point.scheme->mayDeny)
            ++unexpected_failures;
        table.addRow({point.scheme->name,
                      std::to_string(point.accels),
                      std::to_string(res.totalCycles),
                      std::to_string(res.dmaBeats),
                      std::to_string(res.exceptions),
                      ok ? "yes" : "no"});
        doc << "    {\n"
            << "      \"scheme\": \"" << point.scheme->name << "\",\n"
            << "      \"accels\": " << point.accels << ",\n"
            << "      \"label\": \""
            << json::escape(requests[i].label()) << "\",\n"
            << "      \"cycles\": " << res.totalCycles << ",\n"
            << "      \"dmaBeats\": " << res.dmaBeats << ",\n"
            << "      \"exceptions\": " << res.exceptions << ",\n"
            << "      \"peakTableEntries\": " << res.peakTableEntries
            << ",\n"
            << "      \"correct\": " << (ok ? "true" : "false")
            << "\n    }" << (i + 1 < outcomes.size() ? "," : "")
            << "\n";
    }
    doc << "  ]\n}\n";
    table.print(std::cout);

    if (!out.empty()) {
        std::ofstream os(out);
        if (!os) {
            std::cerr << "scale_sweep: cannot write '" << out << "'\n";
            return 2;
        }
        os << doc.str();
        std::cout << "\nwrote " << out << "\n";
    }

    if (unexpected_failures) {
        std::cerr << "scale_sweep: " << unexpected_failures
                  << " point(s) failed under a scheme that must stay "
                     "correct\n";
        return 1;
    }
    return 0;
}
