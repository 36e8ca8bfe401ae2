/**
 * @file
 * JSON serialization of RunRequest / RunResult pairs and sweep
 * manifests. Every per-run field written here is a deterministic
 * function of the request and the simulation outcome, so the
 * run-<hash>.json files produced by an 8-thread sweep are
 * byte-identical to a serial one. The manifest may additionally carry
 * an explicitly non-deterministic "profile" block (wall-clock and
 * worker-utilization metadata) when the caller supplies one.
 */

#ifndef CAPCHECK_HARNESS_RESULT_JSON_HH
#define CAPCHECK_HARNESS_RESULT_JSON_HH

#include <optional>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/json_value.hh"
#include "harness/run_request.hh"
#include "harness/sweep_options.hh"

namespace capcheck::harness
{

/** A request paired with its (possibly cache-served) result. */
struct RunOutcome
{
    RunRequest request;
    system::RunResult result;
    /** Served from the result cache instead of a fresh simulation. */
    bool cacheHit = false;
    /** Wall time of the simulation in milliseconds; 0 on cache hits.
     *  Appears in progress lines and the manifest's profile block,
     *  never in run-<hash>.json. */
    double wallMillis = 0;
};

/** Write the full SocConfig as a JSON object in value position. */
void writeConfigJson(json::JsonWriter &w,
                     const system::SocConfig &cfg);

/** Write one request + result as a self-describing JSON object. */
void writeRunJson(json::JsonWriter &w, const RunRequest &request,
                  const system::RunResult &result);

/** writeRunJson() rendered to a string (the run-<hash>.json body). */
std::string runJson(const RunRequest &request,
                    const system::RunResult &result);

/**
 * @{
 * Wire serialization: a *complete*, invertible JSON encoding of
 * RunRequest and RunResult. Unlike writeConfigJson/writeRunJson —
 * whose documents are human-facing artefacts that omit default cost
 * tables — these emit every field that feeds RunRequest::hash() and
 * RunResult::operator==, so a request round-tripped through the
 * capcheckd socket protocol re-hashes to the same key and a result
 * round-tripped through the disk cache compares equal field by field.
 */
void writeRequestWireJson(json::JsonWriter &w,
                          const RunRequest &request);

/** Request rebuilt from writeRequestWireJson() output; nullopt (with
 *  a one-line @p error) on missing/ill-typed fields. */
std::optional<RunRequest> requestFromWireJson(const json::JsonValue &v,
                                              std::string *error);

void writeResultWireJson(json::JsonWriter &w,
                         const system::RunResult &result);

/** Result rebuilt from writeResultWireJson() output. */
std::optional<system::RunResult>
resultFromWireJson(const json::JsonValue &v, std::string *error);
/** @} */

/** One cache's counters as a JSON object in value position (sweep
 *  manifests and the capcheckd stats frame). */
void writeCacheStatsJson(json::JsonWriter &w, const CacheStats &c);

/**
 * Host-side execution profile of one sweep batch. Everything in here
 * is wall-clock metadata: useful for tuning --jobs, excluded from the
 * determinism contract.
 */
struct SweepProfile
{
    /** Worker threads the batch actually used. */
    unsigned workers = 0;
    /** Fresh simulations (cache misses) in the batch. */
    std::uint64_t executed = 0;
    /** Requests served from the result cache. */
    std::uint64_t cacheHits = 0;
    /** @{ Task preparations of the fresh simulations, counted per
     *  job family by exact key: distinct tasks, and preparations that
     *  repeat one (served from the family's task memo). */
    std::uint64_t tasksPrepared = 0;
    std::uint64_t tasksReused = 0;
    /** @} */
    /** Sum of per-simulation wall times (all workers). */
    double simWallMillis = 0;
    /** Wall-clock of the whole batch, submission to last join. */
    double sweepWallMillis = 0;
    /** @{ Per-run wall-time spread over the fresh simulations (all
     *  zero when the batch was fully cached): the sum above hides a
     *  grid skewed by one slow point; min/p50/max exposes it. */
    double runWallMinMillis = 0;
    double runWallP50Millis = 0;
    double runWallMaxMillis = 0;
    /** @} */

    /** Result-cache counters of both levels after the batch. */
    TierStats cache;

    /**
     * Fill the fields the outcomes decide: executed, cacheHits,
     * simWallMillis and the runWall spread (each fresh outcome
     * carries its run's wall time).
     */
    void tally(const std::vector<RunOutcome> &outcomes);

    /**
     * simWall / (sweepWall * workers): 1.0 means every worker
     * simulated the whole time.
     */
    double utilization() const;
};

/**
 * The manifest document for one named sweep, in submission order.
 * With a @p profile, each entry gains its wall time and the document
 * gains a "profile" block (both non-deterministic).
 */
std::string manifestJson(const std::string &sweep_name,
                         const std::vector<RunOutcome> &outcomes,
                         const SweepProfile *profile = nullptr);

} // namespace capcheck::harness

#endif // CAPCHECK_HARNESS_RESULT_JSON_HH
