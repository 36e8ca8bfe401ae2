#include "service/server.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "base/logging.hh"
#include "harness/result_json.hh"
#include "service/frame.hh"
#include "system/soc_config_builder.hh"

namespace capcheck::service
{

ServiceInstruments::ServiceInstruments(obs::MetricsRegistry &r)
    : batchesReceived(
          r.counter("batches.received", "Submit frames received")),
      batchesAdmitted(
          r.counter("batches.admitted", "Batches admitted in full")),
      batchesRejected(r.counter(
          "batches.rejected",
          "Batches rejected (overload, oversize, invalid)")),
      requestsReceived(
          r.counter("requests.received",
                    "Requests arriving in submit frames")),
      requestsAdmitted(
          r.counter("requests.admitted",
                    "Requests admitted into the daemon")),
      requestsRejected(r.counter("requests.rejected",
                                 "Requests in rejected batches")),
      requestsExecuted(r.counter("requests.executed",
                                 "Fresh simulations completed")),
      requestsFailed(r.counter("requests.failed",
                               "Requests whose simulation failed")),
      cacheHitsMem(
          r.counter("requests.cacheHitsMem",
                    "Requests answered from the memory cache")),
      cacheHitsDisk(
          r.counter("requests.cacheHitsDisk",
                    "Requests answered from the disk cache")),
      coalesced(r.counter(
          "requests.coalesced",
          "Requests coalesced onto an in-flight simulation")),
      workerBusyMicros(r.counter("worker.busyMicros",
                                 "Cumulative worker simulation time")),
      tasksPrepared(r.counter("tasks.prepared",
                              "Distinct task preparations")),
      tasksReused(r.counter(
          "tasks.reused", "Task preparations served from a batch's memo")),
      framesIn(r.counter("frames.in", "Frames received")),
      framesOut(r.counter("frames.out", "Frames sent")),
      bytesIn(r.counter("bytes.in",
                        "Wire bytes received, headers included")),
      bytesOut(r.counter("bytes.out",
                         "Wire bytes sent, headers included")),
      queueDepth(
          r.gauge("queue.depth", "Units waiting for a worker")),
      clientsActive(r.gauge("clients.active", "Connected clients")),
      requestsInflight(
          r.gauge("requests.inflight",
                  "Requests admitted but not yet answered")),
      workersBusy(
          r.gauge("workers.busy", "Workers simulating right now")),
      workersTotal(r.gauge("workers.total", "Worker pool size")),
      uptimeMillis(
          r.gauge("uptime.millis", "Milliseconds since start")),
      memCacheEntries(
          r.gauge("cache.mem.entries", "Memory-cache entries")),
      memCacheBytes(
          r.gauge("cache.mem.bytes", "Memory-cache body bytes")),
      diskCacheEntries(
          r.gauge("cache.disk.entries", "Disk-cache entries")),
      diskCacheBytes(
          r.gauge("cache.disk.bytes", "Disk-cache body bytes")),
      spanAdmit(r.histogram(
          "span.admit", "received -> admitted, microseconds")),
      spanQueue(r.histogram(
          "span.queue", "admitted -> dequeued, microseconds")),
      spanExecute(r.histogram(
          "span.execute", "dequeued -> executed, microseconds")),
      spanRender(r.histogram(
          "span.render", "executed -> rendered, microseconds")),
      spanStream(r.histogram(
          "span.stream", "rendered -> streamed, microseconds")),
      spanEndToEnd(r.histogram(
          "span.endToEnd", "received -> streamed, microseconds")),
      batchSize(
          r.histogram("batch.size", "Requests per admitted batch"))
{
}

namespace
{

/** The span/disk-cache hash spelling: 16 lowercase hex digits. */
std::string
spanHashHex(std::uint64_t hash)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

} // namespace

/** One connected client and its write-side state. */
struct Server::Client
{
    std::uint64_t id = 0;
    Fd fd;
    std::thread reader;
    /** Serializes result/done/error frames from workers + reader. */
    std::mutex writeMtx;
    /** Requests admitted but not yet answered. */
    std::atomic<std::size_t> inflight{0};
    /** A write failed; stop talking to this peer. */
    std::atomic<bool> dead{false};
};

/** One admitted submit message and its completion accounting. */
struct Server::Batch
{
    std::shared_ptr<Client> client;
    std::uint64_t id = 0;
    harness::SweepOptions options;
    std::vector<harness::RunRequest> requests;
    std::atomic<std::size_t> remaining{0};
    std::atomic<std::uint64_t> nExecuted{0};
    std::atomic<std::uint64_t> nCached{0};
    std::atomic<std::uint64_t> nFailed{0};

    /** Batch trace id: the client's, or daemon-synthesized. */
    std::string traceId;
    /** One span per request, sized at admission; the shared stamps
     *  (received/admitted) are filled under the server lock, after
     *  which each index is written only by its answering thread. */
    std::vector<obs::RequestSpan> spans;
};

/**
 * One unique simulation in flight. waiters[0] is the (batch, index)
 * that triggered it — and whose obs options it runs with; everyone
 * else coalesced onto it and will be answered as "cached".
 */
struct Server::Unit
{
    struct Waiter
    {
        std::shared_ptr<Batch> batch;
        std::size_t index = 0;
    };

    std::uint64_t hash = 0;
    std::vector<Waiter> waiters;
    /** The creating batch asked for --no-cache: do not publish. */
    bool noStore = false;

    /** @{ SpanClock stamps for waiters[0]'s queue/execute segments;
     *  coalesced waiters stamp their own at answer time. */
    std::int64_t dequeuedAt = 0;
    std::int64_t executedAt = 0;
    /** @} */

    const harness::RunRequest &
    request() const
    {
        return waiters.front().batch->requests[waiters.front().index];
    }
};

Server::Server(ServerOptions options) : opts(std::move(options))
{
    numJobs = opts.jobs != 0 ? opts.jobs
                             : std::thread::hardware_concurrency();
    if (numJobs == 0)
        numJobs = 1;
    if (!opts.cacheDir.empty()) {
        disk = std::make_unique<harness::DiskResultCache>(
            opts.cacheDir, opts.cacheMaxBytes);
    }
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    std::string err;
    listener = listenUnix(opts.socketPath, 16, &err);
    if (!listener.valid()) {
        throw ServiceError(errConnect,
                           "cannot listen on '" + opts.socketPath +
                               "': " + err);
    }
    {
        std::scoped_lock lock(mtx);
        running = true;
        stopping = false;
    }
    ins.workersTotal.set(numJobs);
    if (!opts.jsonLogFile.empty()) {
        jsonLog = std::make_unique<obs::ServerLog>(opts.jsonLogFile);
        if (!jsonLog->ok()) {
            if (opts.log) {
                *opts.log << "[capcheckd] cannot open --log-json "
                          << opts.jsonLogFile << "; logging disabled\n";
                opts.log->flush();
            }
            jsonLog.reset();
        }
    }
    if (opts.log) {
        *opts.log << "[capcheckd] listening on " << opts.socketPath
                  << " jobs=" << numJobs
                  << (disk ? " cache=" + opts.cacheDir : "") << "\n";
        opts.log->flush();
    }
    workers.reserve(numJobs);
    for (unsigned t = 0; t < numJobs; ++t)
        workers.emplace_back([this] { workerLoop(); });
    acceptor = std::thread([this] { acceptLoop(); });
    if (!opts.metricsOutFile.empty()) {
        {
            std::scoped_lock mlock(metricsMtx);
            metricsStop = false;
        }
        metricsThread = std::thread([this] { metricsLoop(); });
    }
}

void
Server::stop()
{
    {
        std::scoped_lock lock(mtx);
        if (!running)
            return;
        stopping = true;
    }
    wake.notify_all();

    // Unblock accept(); closing the fd alone does not wake it.
    if (listener.valid())
        ::shutdown(listener.get(), SHUT_RDWR);
    if (acceptor.joinable())
        acceptor.join();
    listener.reset();

    // Workers drain whatever was already queued before exiting, so
    // admitted batches still get their done frames.
    for (std::thread &t : workers)
        t.join();
    workers.clear();

    // Only now hang up on the clients and join their readers. The
    // acceptor is gone, so this snapshot is complete.
    std::vector<std::shared_ptr<Client>> toClose;
    {
        std::scoped_lock lock(mtx);
        toClose = clients;
    }
    for (const auto &client : toClose) {
        if (client->fd.valid())
            ::shutdown(client->fd.get(), SHUT_RDWR);
    }
    for (const auto &client : toClose) {
        if (client->reader.joinable())
            client->reader.join();
    }

    // Stop the metrics writer, then leave one final exposition
    // behind that reflects the fully drained state.
    {
        std::scoped_lock mlock(metricsMtx);
        metricsStop = true;
    }
    metricsWake.notify_all();
    if (metricsThread.joinable())
        metricsThread.join();
    if (!opts.metricsOutFile.empty())
        writeMetricsFile();

    std::error_code ec;
    std::filesystem::remove(opts.socketPath, ec);
    {
        std::scoped_lock lock(mtx);
        running = false;
        clients.clear();
    }
    if (opts.log) {
        *opts.log << "[capcheckd] stopped\n";
        opts.log->flush();
    }
}

void
Server::acceptLoop()
{
    while (true) {
        Fd conn = acceptUnix(listener.get());
        {
            std::scoped_lock lock(mtx);
            if (stopping)
                return;
        }
        if (!conn.valid())
            continue;
        auto client = std::make_shared<Client>();
        client->fd = std::move(conn);
        {
            // The reader is spawned and assigned under the lock: its
            // self-cleanup in serveClient() takes the same lock before
            // touching client->reader, so a client that disconnects
            // instantly cannot observe the member unassigned.
            std::scoped_lock lock(mtx);
            client->id = nextClientId++;
            clients.push_back(client);
            client->reader =
                std::thread([this, client] { serveClient(client); });
        }
        if (opts.log) {
            *opts.log << "[capcheckd] client " << client->id
                      << " connected\n";
            opts.log->flush();
        }
    }
}

void
Server::serveClient(const std::shared_ptr<Client> &client)
{
    while (true) {
        std::optional<std::string> payload;
        try {
            payload = recvFrame(client->fd.get(), opts.maxFrameBytes,
                                &frameMeter);
        } catch (const FrameError &e) {
            // Tell the peer why before hanging up; a desynchronized
            // stream cannot be resynchronized, so the connection ends
            // either way.
            const char *code =
                e.kind() == FrameError::Kind::badMagic
                    ? errBadFrame
                : e.kind() == FrameError::Kind::oversize
                    ? errOversizeFrame
                    : errProtocol;
            sendToClient(client,
                         encodeError(code, e.what(), std::nullopt));
            break;
        }
        if (!payload)
            break; // clean EOF

        std::string perr;
        auto v = json::parseJson(*payload, &perr);
        if (!v) {
            sendToClient(client,
                         encodeError(errBadRequest,
                                     "unparseable message: " + perr,
                                     std::nullopt));
            continue;
        }
        const std::string type = messageType(*v);
        if (type == "ping") {
            sendToClient(client, encodePong());
        } else if (type == "stats") {
            sendToClient(client, encodeStats(stats()));
        } else if (type == "submit") {
            std::string serr;
            auto msg = submitFromJson(*v, &serr);
            if (!msg) {
                sendToClient(client,
                             encodeError(errBadRequest, serr,
                                         std::nullopt));
                continue;
            }
            handleSubmit(client, std::move(*msg));
        } else {
            sendToClient(client,
                         encodeError(errProtocol,
                                     "unknown message type '" + type +
                                         "'",
                                     std::nullopt));
        }
        if (client->dead.load(std::memory_order_relaxed))
            break;
    }

    std::thread self;
    {
        std::scoped_lock lock(mtx);
        if (stopping)
            return; // stay in `clients` so stop() can join us
        for (auto it = clients.begin(); it != clients.end(); ++it) {
            if (it->get() == client.get()) {
                clients.erase(it);
                break;
            }
        }
        self = std::move(client->reader);
        // Past this block a detached reader must not touch the
        // server: stop() may already be tearing it down.
        if (opts.log) {
            *opts.log << "[capcheckd] client " << client->id
                      << " disconnected\n";
            opts.log->flush();
        }
    }
    if (self.joinable())
        self.detach();
    client->fd.reset();
}

void
Server::handleSubmit(const std::shared_ptr<Client> &client,
                     SubmitMessage &&msg)
{
    const std::int64_t receivedNanos = spanClock.nowNanos();
    const std::size_t n = msg.requests.size();
    const std::string traceId =
        msg.options.traceId.empty()
            ? "client" + std::to_string(client->id) + ".batch" +
                  std::to_string(msg.batch)
            : msg.options.traceId;
    ins.batchesReceived.inc();
    ins.requestsReceived.inc(n);

    if (n > opts.maxBatchRequests) {
        rejectBatch(client, msg.batch, traceId, n, errOversizeBatch,
                    "batch of " + std::to_string(n) +
                        " requests exceeds the daemon cap of " +
                        std::to_string(opts.maxBatchRequests));
        return;
    }

    // Validate every configuration up front — the in-process runner
    // fatal()s here, but a daemon answers with a structured error and
    // lives on.
    for (const harness::RunRequest &req : msg.requests) {
        const std::string errors =
            system::validationErrors(req.config);
        if (!errors.empty()) {
            rejectBatch(client, msg.batch, traceId, n, errBadRequest,
                        "invalid request [" + req.label() +
                            "]: " + errors);
            return;
        }
    }

    auto batch = std::make_shared<Batch>();
    batch->client = client;
    batch->id = msg.batch;
    batch->options = std::move(msg.options);
    batch->requests = std::move(msg.requests);
    batch->remaining.store(n, std::memory_order_relaxed);

    // Artefact directories must exist before any worker writes.
    harness::createObsDirs(batch->options);

    // Submit-time cache hits are answered inline below; fresh work is
    // collected first so admission can be all-or-nothing, then
    // enqueued in one shot.
    struct InlineHit
    {
        std::size_t index;
        std::uint64_t hash;
        system::RunResult result;
        bool fromDisk;
    };
    std::vector<InlineHit> hits;
    std::vector<std::shared_ptr<Unit>> fresh;
    const bool useCache = batch->options.cacheEnabled;

    {
        std::unique_lock lock(mtx);
        const std::size_t inflight =
            client->inflight.load(std::memory_order_relaxed);
        if (inflight + n > opts.maxInflightPerClient) {
            ++rejectedOverload;
            lock.unlock();
            rejectBatch(client, batch->id, traceId, n, errOverloaded,
                        "client has " + std::to_string(inflight) +
                            " requests in flight; cap is " +
                            std::to_string(opts.maxInflightPerClient),
                        100);
            return;
        }
        if (queue.size() + n > opts.maxQueue) {
            ++rejectedOverload;
            lock.unlock();
            rejectBatch(client, batch->id, traceId, n, errOverloaded,
                        "queue depth " +
                            std::to_string(queue.size()) +
                            " cannot absorb a batch of " +
                            std::to_string(n) + " (cap " +
                            std::to_string(opts.maxQueue) + ")",
                        100);
            return;
        }
        client->inflight.fetch_add(n, std::memory_order_relaxed);
        ins.batchesAdmitted.inc();
        ins.requestsAdmitted.inc(n);
        ins.requestsInflight.add(static_cast<std::int64_t>(n));
        ins.batchSize.observe(n);

        // Span skeletons before any unit can be answered: the shared
        // received/admitted stamps are written here under the lock,
        // after which spans[i] belongs to whichever thread answers
        // request i.
        const std::int64_t admittedNanos = spanClock.nowNanos();
        batch->traceId = traceId;
        batch->spans.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            obs::RequestSpan &span = batch->spans[i];
            span.traceId = traceId + "#" + std::to_string(i);
            span.batch = batch->id;
            span.index = i;
            span.received = receivedNanos;
            span.admitted = admittedNanos;
        }

        std::map<std::uint64_t, std::shared_ptr<Unit>> batchLocal;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t h = batch->requests[i].hash();
            if (useCache) {
                if (auto cached = memCache.lookup(h)) {
                    ++totalCacheHits;
                    hits.push_back(
                        {i, h, std::move(*cached), false});
                    continue;
                }
                if (disk) {
                    if (auto stored = disk->lookup(h)) {
                        memCache.store(h, *stored);
                        ++totalCacheHits;
                        hits.push_back(
                            {i, h, std::move(*stored), true});
                        continue;
                    }
                }
                if (auto it = pending.find(h);
                    it != pending.end()) {
                    ++totalCacheHits;
                    it->second->waiters.push_back({batch, i});
                    continue;
                }
            }
            // With the cache off, duplicates inside the batch still
            // coalesce (SweepRunner's cacheEnabled=false re-runs
            // them; one simulation per unique hash is strictly
            // better and keeps "cached" attribution meaningful).
            if (auto it = batchLocal.find(h);
                it != batchLocal.end()) {
                ++totalCacheHits;
                it->second->waiters.push_back({batch, i});
                continue;
            }
            auto unit = std::make_shared<Unit>();
            unit->hash = h;
            unit->waiters.push_back({batch, i});
            unit->noStore = !useCache;
            if (useCache)
                pending.emplace(h, unit);
            batchLocal.emplace(h, unit);
            fresh.push_back(unit);
        }
        queue.push(fresh, [](const std::shared_ptr<Unit> &unit)
                              -> const harness::RunRequest & {
            return unit->request();
        });
        ins.queueDepth.set(static_cast<std::int64_t>(queue.size()));
    }
    for (std::size_t k = 0; k < fresh.size(); ++k)
        wake.notify_one();

    if (jsonLog) {
        jsonLog->admit(client->id, batch->id, batch->traceId, n,
                       fresh.size(), hits.size(),
                       n - fresh.size() - hits.size());
    }

    for (const InlineHit &hit : hits) {
        sendResult(batch, hit.index, hit.hash, RunStatus::cached,
                   hit.fromDisk ? AnswerSource::diskCacheHit
                                : AnswerSource::memCacheHit,
                   &hit.result, 0, std::string());
    }
}

void
Server::rejectBatch(const std::shared_ptr<Client> &client,
                    std::uint64_t batch_id,
                    const std::string &trace_id, std::size_t n,
                    const std::string &code,
                    const std::string &message,
                    unsigned retry_after_millis)
{
    ins.batchesRejected.inc();
    ins.requestsRejected.inc(n);
    if (jsonLog)
        jsonLog->reject(client->id, batch_id, trace_id, code, message,
                        n);
    sendToClient(client, encodeError(code, message, batch_id,
                                     retry_after_millis));
}

void
Server::recordHostProfile(const prof::RunProfile &profile)
{
    // Counter get-or-create takes the registry lock, but this runs
    // once per executed request (not per event), with a handful of
    // domains — noise next to the simulation it just measured.
    registry
        .counter("prof.wallNanos",
                 "host nanoseconds spent executing requests")
        .inc(profile.wallNanos());
    for (const prof::RunProfile::DomainTotals &dom :
         profile.domainTotals()) {
        registry
            .counter("prof." + dom.domain + ".selfNanos",
                     "host self-time of the " + dom.domain +
                         " profiler domain")
            .inc(dom.selfNanos);
        registry
            .counter("prof." + dom.domain + ".calls",
                     "profiled scope entries in the " + dom.domain +
                         " domain")
            .inc(dom.calls);
    }
}

void
Server::workerLoop()
{
    harness::FamilyQueue<std::shared_ptr<Unit>>::Lease lease;
    while (true) {
        std::shared_ptr<Unit> unit;
        // The waiter the unit runs for. Coalescing appends waiters
        // under the lock, so it is read here, not from the unit later.
        Unit::Waiter first;
        {
            std::unique_lock lock(mtx);
            wake.wait(lock,
                      [this] { return stopping || !queue.empty(); });
            if (!queue.take(lease))
                return; // stopping and drained
            ins.queueDepth.set(
                static_cast<std::int64_t>(queue.size()));
            unit = std::move(lease.item);
            first = unit->waiters.front();
        }

        const harness::RunRequest &req =
            first.batch->requests[first.index];
        const harness::SweepOptions &batchOpts = first.batch->options;

        system::RunResult result;
        std::string error;
        unit->dequeuedAt = spanClock.nowNanos();
        ins.workersBusy.add(1);
        prof::RunProfile hostProfile;
        const auto t0 = std::chrono::steady_clock::now();
        try {
            // Worker-side host-time attribution rides along on every
            // request, feeding aggregate prof.* counters rather than
            // per-run files. It costs clock reads in every component
            // scope: a profiled full grid takes 2.4-2.7x the host time
            // of an unprofiled one (4 workers, shared 4-vCPU host).
            const prof::ProfileSession session(hostProfile);
            result = req.execute(harness::obsOptionsFor(batchOpts, req),
                                 lease.memo.get());
        } catch (const SimError &e) {
            error = e.what();
        } catch (const std::exception &e) {
            error = e.what();
        }
        const double wallMillis =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        unit->executedAt = spanClock.nowNanos();
        ins.workersBusy.sub(1);
        ins.workerBusyMicros.inc(static_cast<std::uint64_t>(
            (unit->executedAt - unit->dequeuedAt) / 1000));
        recordHostProfile(hostProfile);

        std::vector<Unit::Waiter> waiters;
        {
            std::scoped_lock lock(mtx);
            pending.erase(unit->hash);
            if (error.empty()) {
                ++totalExecuted;
                if (!unit->noStore) {
                    memCache.store(unit->hash, result);
                    if (disk)
                        disk->store(unit->hash, result);
                }
            }
            // Coalescing window closes here: the hash is out of
            // `pending`, so no waiter can be added after this swap.
            waiters.swap(unit->waiters);
            if (const auto counts = queue.finish(lease)) {
                ins.tasksPrepared.inc(counts->prepared);
                ins.tasksReused.inc(counts->reused);
            }
        }

        for (std::size_t k = 0; k < waiters.size(); ++k) {
            const Unit::Waiter &waiter = waiters[k];
            // Only waiters[0] owns the queue/execute stamps; everyone
            // coalesced stamps dequeued == executed at answer time.
            const std::int64_t dq = k == 0 ? unit->dequeuedAt : 0;
            const std::int64_t ex = k == 0 ? unit->executedAt : 0;
            if (!error.empty()) {
                sendResult(waiter.batch, waiter.index, unit->hash,
                           RunStatus::failed, AnswerSource::failure,
                           nullptr, wallMillis, error, dq, ex);
            } else {
                sendResult(waiter.batch, waiter.index, unit->hash,
                           k == 0 ? RunStatus::executed
                                  : RunStatus::cached,
                           k == 0 ? AnswerSource::fresh
                                  : AnswerSource::coalescedHit,
                           &result, k == 0 ? wallMillis : 0,
                           std::string(), dq, ex);
            }
        }
    }
}

void
Server::sendResult(const std::shared_ptr<Batch> &batch,
                   std::size_t index, std::uint64_t hash,
                   RunStatus status, AnswerSource source,
                   const system::RunResult *result,
                   double wall_millis, const std::string &error,
                   std::int64_t dequeued_nanos,
                   std::int64_t executed_nanos)
{
    switch (status) {
      case RunStatus::executed:
        batch->nExecuted.fetch_add(1, std::memory_order_relaxed);
        break;
      case RunStatus::cached:
        batch->nCached.fetch_add(1, std::memory_order_relaxed);
        break;
      case RunStatus::failed:
        batch->nFailed.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    switch (source) {
      case AnswerSource::fresh:
        ins.requestsExecuted.inc();
        break;
      case AnswerSource::memCacheHit:
        ins.cacheHitsMem.inc();
        break;
      case AnswerSource::diskCacheHit:
        ins.cacheHitsDisk.inc();
        break;
      case AnswerSource::coalescedHit:
        ins.coalesced.inc();
        break;
      case AnswerSource::failure:
        ins.requestsFailed.inc();
        break;
    }

    obs::RequestSpan &span = batch->spans[index];
    span.hash = spanHashHex(hash);
    span.status = runStatusName(status);
    if (executed_nanos > 0) {
        span.dequeued = dequeued_nanos;
        span.executed = executed_nanos;
    } else {
        // Never visited the queue (cache hit / coalesced waiter):
        // whatever it waited for lands in the queue segment, and the
        // execute segment is defined as zero.
        span.dequeued = span.executed = spanClock.nowNanos();
    }

    std::string body;
    const std::string *bodyPtr = nullptr;
    if (result) {
        body = harness::runJson(batch->requests[index], *result);
        bodyPtr = &body;
    }
    span.rendered = spanClock.nowNanos();
    sendToClient(batch->client,
                 encodeResult(batch->id, index, hash, status, result,
                              bodyPtr, wall_millis, error));
    span.streamed = spanClock.nowNanos();
    span.checkInvariant();

    const auto micros = [](std::int64_t nanos) {
        return static_cast<std::uint64_t>(nanos / 1000);
    };
    ins.spanAdmit.observe(micros(span.admitNanos()));
    ins.spanQueue.observe(micros(span.queueNanos()));
    ins.spanExecute.observe(micros(span.executeNanos()));
    ins.spanRender.observe(micros(span.renderNanos()));
    ins.spanStream.observe(micros(span.streamNanos()));
    ins.spanEndToEnd.observe(micros(span.endToEndNanos()));
    if (jsonLog) {
        jsonLog->complete(span);
        if (opts.slowMillis > 0 &&
            span.endToEndNanos() >=
                static_cast<std::int64_t>(opts.slowMillis) * 1000000)
            jsonLog->slow(span, opts.slowMillis);
    }

    ins.requestsInflight.sub(1);
    batch->client->inflight.fetch_sub(1, std::memory_order_relaxed);
    if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) ==
        1) {
        ServiceStats s;
        s.jobs = numJobs;
        sendToClient(
            batch->client,
            encodeDone(batch->id,
                       batch->nExecuted.load(
                           std::memory_order_relaxed),
                       batch->nCached.load(std::memory_order_relaxed),
                       batch->nFailed.load(std::memory_order_relaxed),
                       s));
    }
}

void
Server::sendToClient(const std::shared_ptr<Client> &client,
                     const std::string &payload)
{
    if (client->dead.load(std::memory_order_relaxed))
        return;
    std::scoped_lock lock(client->writeMtx);
    try {
        sendFrame(client->fd.get(), payload, &frameMeter);
    } catch (const FrameError &) {
        client->dead.store(true, std::memory_order_relaxed);
    }
}

void
Server::refreshGaugesLocked()
{
    ins.queueDepth.set(static_cast<std::int64_t>(queue.size()));
    ins.clientsActive.set(static_cast<std::int64_t>(clients.size()));
    ins.workersTotal.set(numJobs);
    ins.uptimeMillis.set(spanClock.nowNanos() / 1000000);
    const harness::CacheStats mem = memCache.stats();
    ins.memCacheEntries.set(static_cast<std::int64_t>(mem.entries));
    ins.memCacheBytes.set(static_cast<std::int64_t>(mem.bytes));
    if (disk) {
        const harness::CacheStats d = disk->stats();
        ins.diskCacheEntries.set(
            static_cast<std::int64_t>(d.entries));
        ins.diskCacheBytes.set(static_cast<std::int64_t>(d.bytes));
    }
    // The FrameMeter is the source of truth; its registry mirrors
    // are brought up to it by delta. Refresh always runs under
    // `mtx`, so two deltas cannot race.
    const auto sync = [](obs::MetricsRegistry::Counter &counter,
                         const std::atomic<std::uint64_t> &truth) {
        const std::uint64_t now =
            truth.load(std::memory_order_relaxed);
        if (now > counter.value())
            counter.inc(now - counter.value());
    };
    sync(ins.framesIn, frameMeter.framesIn);
    sync(ins.framesOut, frameMeter.framesOut);
    sync(ins.bytesIn, frameMeter.bytesIn);
    sync(ins.bytesOut, frameMeter.bytesOut);
}

void
Server::writeMetricsFile()
{
    obs::MetricsSnapshot snap;
    {
        std::scoped_lock lock(mtx);
        refreshGaugesLocked();
        snap = registry.snapshot();
    }
    // tmp + rename so a scraper never reads a half-written file.
    const std::string tmp = opts.metricsOutFile + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return;
        // Instance metadata as an info gauge; socket paths are the
        // kind of arbitrary string the label escaping exists for.
        os << snap.prometheusText(
            {{"socket", opts.socketPath},
             {"protocol", std::to_string(protocolVersion)}});
    }
    std::error_code ec;
    std::filesystem::rename(tmp, opts.metricsOutFile, ec);
}

void
Server::metricsLoop()
{
    const auto interval = std::chrono::milliseconds(
        std::max(1u, opts.metricsIntervalMillis));
    std::unique_lock lock(metricsMtx);
    while (!metricsStop) {
        metricsWake.wait_for(lock, interval);
        if (metricsStop)
            break; // stop() writes the final exposition itself
        lock.unlock();
        writeMetricsFile();
        lock.lock();
    }
}

ServiceStats
Server::stats()
{
    std::scoped_lock lock(mtx);
    return statsLocked();
}

ServiceStats
Server::statsLocked()
{
    ServiceStats s;
    s.executed = totalExecuted;
    s.cacheHits = totalCacheHits;
    s.jobs = numJobs;
    s.memCache = memCache.stats();
    if (disk) {
        s.diskCache = disk->stats();
        s.diskCachePresent = true;
    }
    s.queueDepth = queue.size();
    s.activeClients = clients.size();
    s.rejectedOverload = rejectedOverload;
    refreshGaugesLocked();
    s.metrics = registry.snapshot();
    s.metricsPresent = true;
    return s;
}

} // namespace capcheck::service
