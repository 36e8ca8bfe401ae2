/**
 * @file
 * The capcheckd server: accepts clients on a Unix-domain socket,
 * admits batches of RunRequests into a bounded work queue, executes
 * them on a worker pool sharing one in-memory + optional disk result
 * cache, and streams each result frame back as it completes.
 *
 * Admission control is all-or-nothing per batch: a submit that would
 * exceed the queue bound or the per-client in-flight cap is rejected
 * with a structured "overloaded" error (carrying retryAfterMillis)
 * before any of its requests are enqueued, so a client never sees a
 * half-admitted batch.
 *
 * Identical in-flight requests coalesce across batches and clients: a
 * hash already simulating gains a waiter instead of a second queue
 * entry, and every waiter beyond the first reports status "cached" —
 * the same attribution rule SweepRunner applies at submission time.
 *
 * The work queue is the harness::FamilyQueue SweepRunner uses: an
 * admitted batch's fresh units are pushed as that batch's families,
 * so the runs of one batch that share a benchmark list and a seed
 * share a task memo, which their last unit frees.
 */

#ifndef CAPCHECK_SERVICE_SERVER_HH
#define CAPCHECK_SERVICE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "harness/disk_cache.hh"
#include "harness/family_queue.hh"
#include "harness/result_cache.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "obs/span.hh"
#include "service/frame.hh"
#include "service/socket.hh"
#include "service/sweep_service.hh"
#include "service/wire.hh"

namespace capcheck::service
{

struct ServerOptions
{
    /** Path of the Unix-domain socket to listen on. */
    std::string socketPath;

    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;

    /** Queue-depth bound: a batch is rejected as overloaded when the
     *  queue could not absorb all of its requests. */
    std::size_t maxQueue = 1024;

    /** Per-client cap on requests admitted but not yet answered. */
    std::size_t maxInflightPerClient = 512;

    /** Largest accepted batch; bigger submits are oversizeBatch. */
    std::size_t maxBatchRequests = 4096;

    /** Receiver-side frame payload cap. */
    std::size_t maxFrameBytes = defaultMaxFrameBytes;

    /** Disk-backed result cache directory; empty = memory only. */
    std::string cacheDir;

    /** LRU byte cap of the disk cache; 0 = unbounded. */
    std::uint64_t cacheMaxBytes = 1ull << 30;

    /** Daemon log lines; nullptr silences them. */
    std::ostream *log = nullptr;

    /** Prometheus text exposition file, atomically rewritten (tmp +
     *  rename) every metricsIntervalMillis and once more at stop();
     *  empty disables the writer thread. */
    std::string metricsOutFile;
    unsigned metricsIntervalMillis = 1000;

    /** Structured JSONL event log (obs::ServerLog); empty = off. */
    std::string jsonLogFile;

    /** Completions slower than this (end-to-end) log an extra
     *  "slow" event; 0 disables slow-request logging. */
    std::uint64_t slowMillis = 1000;
};

/**
 * References into one MetricsRegistry, bound once at construction so
 * the serving hot paths bump instruments without any name lookup.
 * The counters obey two conservation identities, checked by CI from
 * the Prometheus dump:
 *
 *   requests.received = requests.admitted + requests.rejected
 *   requests.admitted = requests.executed + requests.cacheHitsMem
 *                     + requests.cacheHitsDisk + requests.coalesced
 *                     + requests.failed
 */
struct ServiceInstruments
{
    explicit ServiceInstruments(obs::MetricsRegistry &r);

    /** @{ Admission counters. */
    obs::MetricsRegistry::Counter &batchesReceived;
    obs::MetricsRegistry::Counter &batchesAdmitted;
    obs::MetricsRegistry::Counter &batchesRejected;
    obs::MetricsRegistry::Counter &requestsReceived;
    obs::MetricsRegistry::Counter &requestsAdmitted;
    obs::MetricsRegistry::Counter &requestsRejected;
    /** @} */

    /** @{ Outcome counters; exactly one fires per admitted request. */
    obs::MetricsRegistry::Counter &requestsExecuted;
    obs::MetricsRegistry::Counter &requestsFailed;
    obs::MetricsRegistry::Counter &cacheHitsMem;
    obs::MetricsRegistry::Counter &cacheHitsDisk;
    obs::MetricsRegistry::Counter &coalesced;
    /** @} */

    obs::MetricsRegistry::Counter &workerBusyMicros;
    /** @{ Task preparations, summed from each family's memo when the
     *  family's last unit finishes. */
    obs::MetricsRegistry::Counter &tasksPrepared;
    obs::MetricsRegistry::Counter &tasksReused;
    /** @} */
    /** @{ FrameMeter mirrors, synced on snapshot/exposition. */
    obs::MetricsRegistry::Counter &framesIn;
    obs::MetricsRegistry::Counter &framesOut;
    obs::MetricsRegistry::Counter &bytesIn;
    obs::MetricsRegistry::Counter &bytesOut;
    /** @} */

    obs::MetricsRegistry::Gauge &queueDepth;
    obs::MetricsRegistry::Gauge &clientsActive;
    obs::MetricsRegistry::Gauge &requestsInflight;
    obs::MetricsRegistry::Gauge &workersBusy;
    obs::MetricsRegistry::Gauge &workersTotal;
    obs::MetricsRegistry::Gauge &uptimeMillis;
    obs::MetricsRegistry::Gauge &memCacheEntries;
    obs::MetricsRegistry::Gauge &memCacheBytes;
    obs::MetricsRegistry::Gauge &diskCacheEntries;
    obs::MetricsRegistry::Gauge &diskCacheBytes;

    /** @{ Span segment latencies, microseconds. */
    obs::MetricsRegistry::Histo &spanAdmit;
    obs::MetricsRegistry::Histo &spanQueue;
    obs::MetricsRegistry::Histo &spanExecute;
    obs::MetricsRegistry::Histo &spanRender;
    obs::MetricsRegistry::Histo &spanStream;
    obs::MetricsRegistry::Histo &spanEndToEnd;
    /** @} */
    obs::MetricsRegistry::Histo &batchSize;
};

class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the socket and launch the accept loop and worker pool.
     * Throws ServiceError(errConnect) when the socket cannot be
     * bound.
     */
    void start();

    /** Graceful stop: drain queued work, close every connection,
     *  join all threads, unlink the socket. Idempotent. */
    void stop();

    ServiceStats stats();

    const std::string &socketPath() const { return opts.socketPath; }

    unsigned jobs() const { return numJobs; }

  private:
    struct Client;
    struct Batch;
    struct Unit;

    /** How an answer was produced; picks the one outcome counter
     *  sendResult bumps, so the conservation identity holds even for
     *  coalesced waiters of a failed simulation. */
    enum class AnswerSource
    {
        fresh,        ///< simulated on a worker
        memCacheHit,  ///< answered from the in-memory cache
        diskCacheHit, ///< answered from the disk cache
        coalescedHit, ///< rode on another in-flight simulation
        failure,      ///< simulation raised an error
    };

    void acceptLoop();
    void serveClient(const std::shared_ptr<Client> &client);
    void handleSubmit(const std::shared_ptr<Client> &client,
                      SubmitMessage &&msg);
    void workerLoop();

    /** Best-effort framed write; marks the client dead on failure. */
    void sendToClient(const std::shared_ptr<Client> &client,
                      const std::string &payload);

    /**
     * Send one result frame to @p batch's client and retire the
     * request from the batch's accounting; emits the done frame when
     * this was the batch's last outstanding request. Completes the
     * request's span (stamping dequeued == executed at answer time
     * when @p dequeued_nanos is 0 — cache hits and coalesced
     * waiters), checks the span-sum INVARIANT, feeds the span
     * histograms and the JSONL log.
     */
    void sendResult(const std::shared_ptr<Batch> &batch,
                    std::size_t index, std::uint64_t hash,
                    RunStatus status, AnswerSource source,
                    const system::RunResult *result,
                    double wall_millis, const std::string &error,
                    std::int64_t dequeued_nanos = 0,
                    std::int64_t executed_nanos = 0);

    /** Reject @p n requests of @p batch_id with one error frame,
     *  bumping the rejection counters and the JSONL log. */
    void rejectBatch(const std::shared_ptr<Client> &client,
                     std::uint64_t batch_id,
                     const std::string &trace_id, std::size_t n,
                     const std::string &code,
                     const std::string &message,
                     unsigned retry_after_millis = 0);

    /**
     * Fold one executed request's host-time profile into the
     * aggregate prof.<domain>.selfNanos / prof.<domain>.calls /
     * prof.wallNanos counters, so `capstat live` and the Prometheus
     * exposition show where the worker pool's wall-clock goes.
     */
    void recordHostProfile(const prof::RunProfile &profile);

    /** Pull level-style values (queue depth, cache sizes, frame
     *  meter, uptime) into the registry; call with `mtx` held. */
    void refreshGaugesLocked();

    /** Atomically rewrite opts.metricsOutFile (tmp + rename). */
    void writeMetricsFile();
    void metricsLoop();

    ServiceStats statsLocked();

    ServerOptions opts;
    unsigned numJobs = 1;

    Fd listener;
    std::thread acceptor;
    std::vector<std::thread> workers;

    std::mutex mtx;
    std::condition_variable wake;
    bool running = false;
    bool stopping = false;

    /** Units waiting for a worker, by (batch, family). */
    harness::FamilyQueue<std::shared_ptr<Unit>> queue;
    /** hash → unit queued or executing, for coalescing. */
    std::map<std::uint64_t, std::shared_ptr<Unit>> pending;
    std::vector<std::shared_ptr<Client>> clients;
    std::uint64_t nextClientId = 1;

    harness::ResultCache memCache;
    std::unique_ptr<harness::DiskResultCache> disk;

    std::uint64_t totalExecuted = 0;
    std::uint64_t totalCacheHits = 0;
    std::uint64_t rejectedOverload = 0;

    /** @{ Telemetry. `registry` must precede `ins` (references). */
    obs::SpanClock spanClock;
    obs::MetricsRegistry registry;
    ServiceInstruments ins{registry};
    FrameMeter frameMeter;
    std::unique_ptr<obs::ServerLog> jsonLog;

    std::thread metricsThread;
    std::mutex metricsMtx;
    std::condition_variable metricsWake;
    bool metricsStop = false;
    /** @} */
};

} // namespace capcheck::service

#endif // CAPCHECK_SERVICE_SERVER_HH
