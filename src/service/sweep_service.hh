/**
 * @file
 * SweepService: the one client API for executing RunRequest batches,
 * whatever is behind it. `submit()` takes a batch and streams one
 * item per input request — {hash, status, resultJson} plus the parsed
 * result — as each completes, then returns the outcome vector in
 * input order; `stats()` and `ping()` round out the interface.
 *
 * Two implementations exist:
 *
 *  - InProcessService wraps the classic SweepRunner: simulations run
 *    on this process's worker threads.
 *  - RemoteService speaks the length-prefixed framing protocol to a
 *    capcheckd daemon over a Unix-domain socket; the daemon owns the
 *    worker pool, the admission control and the shared caches.
 *
 * The two are artefact-compatible by construction: the same batch
 * through either backend yields byte-identical run-<hash>.json files
 * and observability artefacts, so every bench harness can flip
 * between them with --server and nothing downstream notices.
 */

#ifndef CAPCHECK_SERVICE_SWEEP_SERVICE_HH
#define CAPCHECK_SERVICE_SWEEP_SERVICE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/result_json.hh"
#include "harness/run_request.hh"
#include "harness/sweep_options.hh"
#include "obs/metrics.hh"

namespace capcheck::service
{

/** Structured failure from either backend (connect refused, protocol
 *  violation, daemon overload, ...). `code` is machine-stable. */
class ServiceError : public std::runtime_error
{
  public:
    ServiceError(std::string code, const std::string &what)
        : std::runtime_error(what), errorCode(std::move(code))
    {
    }

    const std::string &code() const { return errorCode; }

  private:
    std::string errorCode;
};

/** @{ Machine-stable ServiceError / wire error codes. */
inline constexpr const char *errConnect = "connect";
inline constexpr const char *errBadFrame = "badFrame";
inline constexpr const char *errOversizeFrame = "oversizeFrame";
inline constexpr const char *errOversizeBatch = "oversizeBatch";
inline constexpr const char *errBadRequest = "badRequest";
inline constexpr const char *errOverloaded = "overloaded";
inline constexpr const char *errProtocol = "protocol";
/** @} */

/** How one submitted request was satisfied. */
enum class RunStatus
{
    executed, ///< fresh simulation
    cached,   ///< served from a result cache or batch deduplication
    failed,   ///< the simulation itself raised an error
};

const char *runStatusName(RunStatus status);

/** One streamed completion. Pointers are valid only for the duration
 *  of the sink call. */
struct StreamItem
{
    /** Index of the request in the submitted batch. */
    std::size_t index = 0;
    std::uint64_t hash = 0;
    RunStatus status = RunStatus::executed;
    /** Parsed result; nullptr when status == failed. */
    const system::RunResult *result = nullptr;
    /** The run-<hash>.json document body; may be null when the
     *  backend was asked not to materialize it. */
    const std::string *resultJson = nullptr;
    /** Simulation wall time (0 for cache hits). Non-deterministic. */
    double wallMillis = 0;
    /** Failure description when status == failed. */
    std::string error;
};

/** Aggregate counters of one backend, for `capcheckd`'s stats frame
 *  and the harness summary tables. */
struct ServiceStats
{
    /** Fresh simulations executed over the backend's lifetime. */
    std::uint64_t executed = 0;
    /** Requests served from a cache or by deduplication. */
    std::uint64_t cacheHits = 0;
    /** Worker threads behind the backend. */
    unsigned jobs = 0;
    harness::TierStats cache;
    /** @{ Daemon-only gauges (zero for in-process backends). */
    std::uint64_t queueDepth = 0;
    std::uint64_t activeClients = 0;
    std::uint64_t rejectedOverload = 0;
    /** @} */

    /** Full telemetry registry snapshot; daemon-side stats replies
     *  carry it (metricsPresent), in-process backends omit it. */
    obs::MetricsSnapshot metrics;
    bool metricsPresent = false;
};

class SweepService
{
  public:
    using Sink = std::function<void(const StreamItem &)>;

    virtual ~SweepService() = default;

    /**
     * Execute @p requests, invoking @p sink once per input index as
     * results become available (streaming order is completion order,
     * not input order), and return one outcome per request in input
     * order. Throws ServiceError on protocol/admission failures and
     * fatal()s on simulation failures, mirroring SweepRunner.
     */
    virtual std::vector<harness::RunOutcome>
    submit(const std::vector<harness::RunRequest> &requests,
           const std::string &sweep_name, const Sink &sink = {}) = 0;

    virtual ServiceStats stats() = 0;

    /** Liveness probe; false when the backend is unreachable. */
    virtual bool ping() = 0;
};

/**
 * Backend selection: a RemoteService talking to
 * @p opts.serverSocket when that is non-empty, otherwise an
 * InProcessService around a SweepRunner built from @p opts.
 */
std::unique_ptr<SweepService>
makeService(const harness::SweepOptions &opts);

} // namespace capcheck::service

#endif // CAPCHECK_SERVICE_SWEEP_SERVICE_HH
