/**
 * @file
 * Shared helpers for the table/figure reproduction harnesses: the
 * standard sweep command line (bench/args.hh), the Sweeper facade
 * over the service layer, and config shorthands. All simulation
 * points flow through harness::RunRequest lists submitted to a
 * SweepService, so every harness parallelizes with --jobs, shares a
 * result cache, can emit the full set of observability artefacts —
 * and, with --server SOCK (or CAPCHECK_SERVER), targets a capcheckd
 * daemon instead of simulating in-process, with byte-identical
 * artefacts either way.
 */

#ifndef CAPCHECK_BENCH_COMMON_HH
#define CAPCHECK_BENCH_COMMON_HH

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "base/table.hh"
#include "bench/args.hh"
#include "service/sweep_service.hh"
#include "system/soc_config_builder.hh"
#include "system/soc_system.hh"
#include "workloads/kernel.hh"

namespace capcheck::bench
{

inline void
printHeader(const std::string &what, const std::string &paper_ref)
{
    std::cout << "\n=== " << what << " (reproduces " << paper_ref
              << ") ===\n";
}

/**
 * The harness-side sweep client: a thin facade over SweepService that
 * keeps the counters the summary tables print. Backend selection —
 * in-process SweepRunner vs. remote capcheckd — is entirely inside
 * makeService(), so harness code is identical for both.
 */
class Sweeper
{
  public:
    explicit Sweeper(const harness::SweepOptions &opts)
        : svc(service::makeService(opts))
    {
    }

    /** Execute @p requests; outcomes in input order. */
    std::vector<harness::RunOutcome>
    run(const std::vector<harness::RunRequest> &requests,
        const std::string &sweep_name = "sweep")
    {
        auto outcomes = svc->submit(requests, sweep_name);
        for (const harness::RunOutcome &o : outcomes) {
            if (o.cacheHit)
                ++hits;
            else
                ++executed;
        }
        return outcomes;
    }

    /** Run a single request through the same machinery. */
    system::RunResult
    runOne(const harness::RunRequest &request)
    {
        return run({request}, "single").front().result;
    }

    /** Worker threads behind the backend (daemon's pool if remote). */
    unsigned
    jobs()
    {
        if (!jobsKnown) {
            jobsCache = svc->stats().jobs;
            jobsKnown = true;
        }
        return jobsCache;
    }

    /** Fresh simulations this client caused (cache misses). */
    std::uint64_t simulationsExecuted() const { return executed; }

    /** Requests served from a cache or by deduplication. */
    std::uint64_t cacheHits() const { return hits; }

    service::SweepService &service() { return *svc; }

  private:
    std::unique_ptr<service::SweepService> svc;
    std::uint64_t executed = 0;
    std::uint64_t hits = 0;
    unsigned jobsCache = 0;
    bool jobsKnown = false;
};

/** Parse the standard command line and build the sweep client. */
inline Sweeper
makeSweeper(int argc, char **argv)
{
    return Sweeper(parseOptions(argc, argv).sweep);
}

/**
 * Validated SocConfig for @p mode with default platform parameters.
 * Honours the harness-wide --topology flag: when one was parsed, every
 * accelerator-mode config (and therefore every RunRequest) elaborates
 * that file. CPU-only modes have no platform to shape, so harnesses
 * that mix cpu and accel points keep working under --topology.
 */
inline system::SocConfig
modeConfig(system::SystemMode mode, std::uint64_t seed = 1)
{
    return system::SocConfigBuilder()
        .mode(mode)
        .seed(seed)
        .topologyFile(system::modeUsesAccel(mode) &&
                              (!detail::cliTopologyNeedsChecker ||
                               system::modeUsesCapChecker(mode))
                          ? detail::cliTopologyFile
                          : std::string())
        .build();
}

} // namespace capcheck::bench

#endif // CAPCHECK_BENCH_COMMON_HH
