/**
 * @file
 * SweepOptions: the one knob struct for running sweeps. It unifies
 * what used to be SweepRunner::Options plus the per-harness
 * observability flag plumbing, and adds the backend selectors of the
 * sweep service layer (remote daemon socket, disk-backed result
 * cache). Every consumer — SweepRunner, the capcheckd server, the
 * bench harness CLI — configures itself from this struct, so a flag
 * parsed once in bench/args.hh reaches all of them. The observability
 * artefacts are rows of one table, obsSinks(), which every consumer
 * loops over.
 *
 * The fluent with*() setters make one-expression construction read
 * naturally in tests and tools:
 *
 *     auto opts = SweepOptions{}.withJobs(4).withJsonDir("out");
 */

#ifndef CAPCHECK_HARNESS_SWEEP_OPTIONS_HH
#define CAPCHECK_HARNESS_SWEEP_OPTIONS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "base/types.hh"
#include "obs/options.hh"

namespace capcheck::harness
{

struct RunRequest;

/**
 * Usage counters of one result cache (in-memory or disk-backed).
 * Entries/bytes describe current occupancy; hits/lookups/evictions
 * accumulate over the cache's lifetime.
 */
struct CacheStats
{
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    std::uint64_t evictions = 0;
};

/** Both levels of a CacheTier: memory, and disk when one is attached. */
struct TierStats
{
    CacheStats memory;
    CacheStats disk;
    bool diskPresent = false;
};

struct SweepOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;

    /** Serve repeated requests from the result cache(s). */
    bool cacheEnabled = true;

    /** Per-run progress lines ("[3/40] gemm_ncubed ... cache=miss
     *  wall=12ms"); nullptr silences them. */
    std::ostream *progress = nullptr;

    /** Directory for run-<hash>.json and <sweep>.manifest.json;
     *  empty = no JSON output. Created on demand. */
    std::string jsonDir;

    /** @{ Per-run artefact directories, one per obsSinks() row (whose
     *  help text says what each file holds); empty = off. Only fresh
     *  simulations produce files: cache hits reuse the original run's
     *  outputs, which are byte-identical by construction. prof and
     *  folded are host wall-clock, so unlike the others they are
     *  machine-dependent, but producing them never changes the
     *  simulated outputs; only in-process sweeps write them. */
    std::string traceDir;
    std::string auditDir;
    std::string flightDir;
    std::string latencyDir;
    std::string profDir;
    std::string foldedDir;
    /** @} */

    /** Cycles between per-run stat samples, written beside the trace
     *  or else beside the result JSON (see obsDir()); 0 = off. */
    Cycles sampleInterval = 0;

    /** Slowest flights kept per run in the flight table. */
    unsigned topN = 10;

    /**
     * Unix-domain socket of a capcheckd daemon; when set, sweeps are
     * submitted to that daemon (service::RemoteService) instead of
     * simulating in-process. Empty = in-process execution.
     */
    std::string serverSocket;

    /**
     * Directory of the disk-backed content-addressed result cache
     * (hash → version-stamped result JSON). Empty = no disk cache.
     * Shared between in-process runs and the daemon: entries written
     * by either survive restarts and serve both.
     */
    std::string cacheDir;

    /**
     * LRU byte cap of the disk cache; least-recently-used entries are
     * evicted once the cache exceeds it. 0 = unbounded.
     */
    std::uint64_t cacheMaxBytes = 1ull << 30;

    /**
     * Trace id sent with remote submits so daemon-side spans and
     * JSONL log lines join against this client's run. Empty = the
     * daemon synthesizes one ("client<id>.batch<n>").
     */
    std::string traceId;

    /** @{ Fluent setters. */
    SweepOptions &withJobs(unsigned v) { jobs = v; return *this; }
    SweepOptions &
    withJsonDir(std::string v)
    {
        jsonDir = std::move(v);
        return *this;
    }
    SweepOptions &
    withServerSocket(std::string v)
    {
        serverSocket = std::move(v);
        return *this;
    }
    SweepOptions &
    withCacheDir(std::string v)
    {
        cacheDir = std::move(v);
        return *this;
    }
    /** @} */

    /**
     * Defaults with the environment applied: CAPCHECK_CACHE_DIR seeds
     * cacheDir, CAPCHECK_CACHE_MAX_BYTES seeds cacheMaxBytes,
     * CAPCHECK_SERVER seeds serverSocket and CAPCHECK_TRACE_ID seeds
     * traceId. Explicit flags parsed on top of this still win. Unit
     * tests constructing SweepOptions{} directly are unaffected by
     * the environment.
     */
    static SweepOptions fromEnvironment();
};

/**
 * One per-run observability artefact, named once: where SweepOptions
 * selects it, the ObsOptions file it lands in, and how it crosses the
 * bench command line and the capcheckd wire. Every per-artefact site
 * (obsOptionsFor, createObsDirs, the bench flags, the submit message)
 * loops over obsSinks() instead of spelling each artefact out.
 */
struct ObsSink
{
    /** Directory member; nullptr for samples, which sampleInterval
     *  selects instead (see obsDir()). */
    std::string SweepOptions::*dir;
    /** Member receiving <dir>/run-<hash><suffix>. */
    std::string obs::ObsOptions::*file;
    const char *suffix;
    /** False for the host-time profiles: the daemon folds its
     *  workers' profiles into its metrics instead of writing files. */
    bool daemonWrites;
    /** Member of a submit message's "options" object; nullptr for
     *  the rows the daemon does not write. */
    const char *wireKey;
    /** Bench harness flag, its value placeholder, and its --help
     *  text ('\n' between lines). */
    const char *flag;
    const char *metavar;
    const char *help;
};

/** Every artefact, in --help order. */
const std::vector<ObsSink> &obsSinks();

/** The directory @p sink's files go to under @p opts; empty = off. */
const std::string &obsDir(const SweepOptions &opts, const ObsSink &sink);

/**
 * The per-run observability outputs @p opts selects for @p request:
 * every artefact path is keyed by the request's content hash, so the
 * same request produces the same file names whether it runs
 * in-process or inside the daemon.
 */
obs::ObsOptions obsOptionsFor(const SweepOptions &opts,
                              const RunRequest &request);

/** Worker threads for @p jobs: 0 = std::thread::hardware_concurrency(),
 *  and at least 1. */
unsigned resolveJobs(unsigned jobs);

/** Create every artefact directory @p opts selects, before any worker
 *  writes into one; warns about each that cannot be created. */
void createObsDirs(const SweepOptions &opts);

} // namespace capcheck::harness

#endif // CAPCHECK_HARNESS_SWEEP_OPTIONS_HH
