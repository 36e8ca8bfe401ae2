/**
 * @file
 * RunRequest: a value type naming one simulation point — benchmark(s),
 * full SocConfig, explicit task count — with a stable content hash.
 * The hash keys the SweepRunner's result cache and the JSON result
 * files, so two requests with identical parameters are recognized as
 * the same experiment no matter which harness submitted them.
 */

#ifndef CAPCHECK_HARNESS_RUN_REQUEST_HH
#define CAPCHECK_HARNESS_RUN_REQUEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "system/run_result.hh"
#include "system/soc_system.hh"

namespace capcheck::prof
{
class RunProfile;
} // namespace capcheck::prof

namespace capcheck::harness
{

struct RunRequest
{
    /**
     * One entry: a single-benchmark run (SocSystem::runBenchmark).
     * Several entries: a mixed system (SocSystem::runMixed) with one
     * accelerator pool and one task per entry.
     */
    std::vector<std::string> benchmarks;

    system::SocConfig config;

    /**
     * Concurrent task count, always explicit (never the old helper's
     * silent 0). single() resolves a 0 argument to
     * config.numInstances — the paper's one-task-per-instance setup —
     * at construction time, so every stored request states its real
     * task count and hashes accordingly.
     */
    unsigned numTasks = 1;

    /** Build a single-benchmark request (0 tasks = one per instance). */
    static RunRequest single(std::string benchmark,
                             system::SocConfig cfg,
                             unsigned num_tasks = 0);

    /** Build a mixed-system request (one task per named benchmark). */
    static RunRequest mixed(std::vector<std::string> benchmarks,
                            system::SocConfig cfg);

    bool isMixed() const { return benchmarks.size() > 1; }

    /**
     * Stable content hash over every field that influences the
     * simulation outcome (benchmarks, task count, and the full
     * SocConfig including cost parameters). Identical across
     * processes and platforms; used as the result-cache key and in
     * JSON file names.
     */
    std::uint64_t hash() const;

    /** hash() as a fixed-width lowercase hex string. */
    std::string hashHex() const;

    /** Compact human-readable description for progress lines. */
    std::string label() const;

    /** Construct a SocSystem for this request and run it. */
    system::RunResult execute() const;

    /**
     * execute() with observability outputs (Chrome trace, stat
     * samples, audit log) enabled for the run. The files depend only
     * on the request and simulated time, never on host threading.
     * With a @p memo, the run's tasks are prepared through it; the
     * result is the same.
     */
    system::RunResult execute(const obs::ObsOptions &obs_opts,
                              system::TaskMemo *memo = nullptr) const;

    bool operator==(const RunRequest &other) const;
};

/** "invalid request [LABEL]: ERRORS" for the first of @p requests
 *  whose configuration does not validate; empty when all do. */
std::string firstInvalid(const std::vector<RunRequest> &requests);

/** @p hash as 16 lowercase hex digits, the spelling of every file
 *  name, wire field and span that names a request. */
std::string hashHex(std::uint64_t hash);

/** One request run through runTimed(). */
struct TimedRun
{
    system::RunResult result;
    /** What the run threw; empty when it succeeded. */
    std::string error;
    /** Host wall-clock of the run. */
    double wallMillis = 0;
};

/**
 * The one way SweepRunner and capcheckd run a request: execute it
 * with @p obs_opts and @p memo, under a profile session on @p profile
 * when that is non-null, timing the wall clock and turning a thrown
 * error into TimedRun::error. The session covers exactly this run, on
 * this thread, so the profile's scopes hit a private buffer.
 */
TimedRun runTimed(const RunRequest &request,
                  const obs::ObsOptions &obs_opts, system::TaskMemo *memo,
                  prof::RunProfile *profile);

} // namespace capcheck::harness

#endif // CAPCHECK_HARNESS_RUN_REQUEST_HH
