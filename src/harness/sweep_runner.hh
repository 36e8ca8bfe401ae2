/**
 * @file
 * SweepRunner: executes batches of RunRequests on a pool of worker
 * threads. Each worker owns the SocSystem it is running — the event
 * queue stays single-threaded per simulation — so parallelism is
 * across experiment points, never inside one. A content-hash result
 * cache deduplicates identical requests within and across batches,
 * and completed sweeps can be serialized as JSON under a results
 * directory.
 *
 * Determinism: a request's RunResult depends only on the request, so
 * the outcome vector (input order preserved) and all JSON output are
 * byte-identical whether the batch ran on 1 thread or 8. Wall-clock
 * metadata appears only in progress lines (stderr by convention).
 */

#ifndef CAPCHECK_HARNESS_SWEEP_RUNNER_HH
#define CAPCHECK_HARNESS_SWEEP_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/result_cache.hh"
#include "harness/result_json.hh"
#include "harness/run_request.hh"
#include "harness/sweep_options.hh"

namespace capcheck::harness
{

class SweepRunner
{
  public:
    /**
     * The runner's knobs are the unified SweepOptions (serverSocket
     * is ignored here — backend selection happens one layer up in
     * service::makeService; a non-empty cacheDir attaches the
     * disk-backed result cache behind the in-memory one).
     */
    using Options = SweepOptions;

    SweepRunner() : SweepRunner(Options{}) {}
    explicit SweepRunner(Options options);

    /**
     * Execute @p requests and return one outcome per request, in
     * input order. Every request is validated (validateSocConfig)
     * before anything runs; duplicates — within the batch or against
     * previous batches — are served from the cache. When a jsonDir is
     * configured, writes one run-<hash>.json per unique request plus
     * <sweep_name>.manifest.json.
     */
    std::vector<RunOutcome> run(const std::vector<RunRequest> &requests,
                                const std::string &sweep_name = "sweep");

    /** Convenience: run a single request through the same machinery. */
    system::RunResult runOne(const RunRequest &request);

    /** Resolved worker count. */
    unsigned jobs() const { return numJobs; }

    /** Simulations actually executed (cache misses) so far. */
    std::uint64_t simulationsExecuted() const { return executed; }

    /** Requests served from the cache so far. */
    std::uint64_t cacheHits() const { return hits; }

    const CacheTier &cache() const { return results; }

  private:
    Options opts;
    unsigned numJobs = 1;
    CacheTier results;
    std::uint64_t executed = 0;
    std::uint64_t hits = 0;
};

} // namespace capcheck::harness

#endif // CAPCHECK_HARNESS_SWEEP_RUNNER_HH
