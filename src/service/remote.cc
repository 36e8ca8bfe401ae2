#include "service/remote.hh"

#include <chrono>
#include <optional>

#include "base/logging.hh"
#include "harness/sweep_report.hh"
#include "service/frame.hh"
#include "service/wire.hh"

namespace capcheck::service
{

namespace
{

/** Map a framing failure onto the structured service error space. */
[[noreturn]] void
rethrowFrameError(const FrameError &e)
{
    switch (e.kind()) {
      case FrameError::Kind::badMagic:
        throw ServiceError(errBadFrame, e.what());
      case FrameError::Kind::oversize:
        throw ServiceError(errOversizeFrame, e.what());
      case FrameError::Kind::io:
        break;
    }
    throw ServiceError(errConnect, e.what());
}

/** The daemon's message in @p payload; throws when it does not parse
 *  or when the daemon reported a structured error. */
json::JsonValue
parseReply(const std::string &payload)
{
    std::string err;
    auto v = json::parseJson(payload, &err);
    if (!v) {
        throw ServiceError(errProtocol,
                           "unparseable frame from daemon: " + err);
    }
    if (messageType(*v) == "error") {
        const json::JsonValue *code = v->get("code");
        const json::JsonValue *message = v->get("message");
        throw ServiceError(
            code && code->isString() ? code->asString() : errProtocol,
            message && message->isString() ? message->asString()
                                           : "daemon error");
    }
    return std::move(*v);
}

} // namespace

json::JsonValue
roundTrip(int fd, const std::string &payload, FrameMeter *meter)
{
    try {
        sendFrame(fd, payload, meter);
        auto reply = recvFrame(fd, defaultMaxFrameBytes, meter);
        if (!reply) {
            throw ServiceError(errConnect,
                               "daemon closed the connection");
        }
        return parseReply(*reply);
    } catch (const FrameError &e) {
        rethrowFrameError(e);
    }
}

RemoteService::RemoteService(harness::SweepOptions options)
    : opts(std::move(options))
{
    std::string err;
    conn = connectUnix(opts.serverSocket, &err);
    if (!conn.valid()) {
        throw ServiceError(errConnect,
                           "cannot connect to capcheckd at '" +
                               opts.serverSocket + "': " + err);
    }
    // Handshake: a pong with a matching protocol version, before the
    // caller invests in building a batch.
    const json::JsonValue pongv =
        roundTrip(conn.get(), encodePing(), &meter);
    const auto pong = pongFromJson(pongv);
    if (!pong) {
        throw ServiceError(errProtocol,
                           "expected pong, got '" +
                               messageType(pongv) + "'");
    }
    if (pong->protocol != protocolVersion) {
        throw ServiceError(
            errProtocol,
            "protocol version mismatch: daemon speaks " +
                std::to_string(pong->protocol) +
                ", this client speaks " +
                std::to_string(protocolVersion));
    }
    // Same protocol but diverging request hashing is survivable (the
    // daemon re-hashes and would answer from a differently-keyed
    // cache, not corrupt one), so skew is a warning, not an error.
    if (!pong->build.empty() && pong->build != buildHash()) {
        warn("capcheckd at '%s' is a different build (daemon %s, "
             "client %s): caches will not be shared across the skew",
             opts.serverSocket.c_str(), pong->build.c_str(),
             buildHash().c_str());
    }
}

std::vector<harness::RunOutcome>
RemoteService::submit(const std::vector<harness::RunRequest> &requests,
                      const std::string &sweep_name, const Sink &sink)
{
    std::scoped_lock lock(mtx);
    const auto batch_t0 = std::chrono::steady_clock::now();
    const std::uint64_t batch = nextBatch++;

    std::vector<harness::RunOutcome> outcomes(requests.size());
    std::vector<std::string> bodies(requests.size());
    std::vector<char> filled(requests.size(), 0);
    for (std::size_t i = 0; i < requests.size(); ++i)
        outcomes[i].request = requests[i];

    // The fresh-simulation total is only known at the done frame, so
    // remote progress counts against the batch size instead.
    harness::ProgressLog progress(opts.progress, requests.size());
    std::optional<DoneMessage> done;
    std::size_t firstFailed = requests.size();
    std::string firstError;

    try {
        sendFrame(conn.get(),
                  encodeSubmit(batch, sweep_name, opts, requests),
                  &meter);
        while (!done) {
            auto payload = recvFrame(conn.get(),
                                     defaultMaxFrameBytes, &meter);
            if (!payload) {
                throw ServiceError(
                    errConnect,
                    "daemon closed the connection mid-batch");
            }
            const json::JsonValue v = parseReply(*payload);
            const std::string type = messageType(v);
            if (type == "done") {
                done = doneFromJson(v);
                continue;
            }
            if (type != "result") {
                throw ServiceError(errProtocol,
                                   "unexpected frame '" + type +
                                       "' mid-batch");
            }
            const json::JsonValue *idx = v.get("index");
            const std::size_t i =
                idx && idx->isNumber()
                    ? static_cast<std::size_t>(idx->asNumber())
                    : requests.size();
            if (i >= requests.size()) {
                throw ServiceError(errProtocol,
                                   "result index out of range");
            }
            const json::JsonValue *st = v.get("status");
            const std::string status =
                st && st->isString() ? st->asString() : "";
            const json::JsonValue *wall = v.get("wallMillis");
            const double wallMillis =
                wall && wall->isNumber() ? wall->asNumber() : 0;

            harness::RunOutcome &out = outcomes[i];
            filled[i] = 1;
            std::string error;
            if (status == "failed") {
                const json::JsonValue *em = v.get("error");
                error = em && em->isString() ? em->asString()
                                             : "simulation failed";
                if (firstFailed == requests.size()) {
                    firstFailed = i;
                    firstError = error;
                }
                progress.failed(requests[i], error);
            } else {
                const json::JsonValue *res = v.get("result");
                std::string perr = "missing 'result'";
                std::optional<system::RunResult> parsed;
                if (res)
                    parsed = harness::resultFromWireJson(*res, &perr);
                if (!parsed) {
                    throw ServiceError(errProtocol,
                                       "result frame for index " +
                                           std::to_string(i) +
                                           " unparseable: " + perr);
                }
                out.result = std::move(*parsed);
                out.cacheHit = status == "cached";
                out.wallMillis = out.cacheHit ? 0 : wallMillis;
                if (const json::JsonValue *rj = v.get("resultJson");
                    rj && rj->isString())
                    bodies[i] = rj->asString();
                if (out.cacheHit)
                    progress.cached(requests[i], out.result.totalCycles);
                else
                    progress.ran(requests[i], out.result.totalCycles,
                                 wallMillis);
            }

            if (sink) {
                StreamItem item;
                item.index = i;
                // The daemon re-hashed the request against this one.
                item.hash = requests[i].hash();
                item.status = status == "cached"   ? RunStatus::cached
                              : status == "failed" ? RunStatus::failed
                                                   : RunStatus::executed;
                item.result = status == "failed" ? nullptr : &out.result;
                item.resultJson = bodies[i].empty() ? nullptr : &bodies[i];
                item.wallMillis = out.wallMillis;
                item.error = error;
                sink(item);
            }
        }
    } catch (const FrameError &e) {
        rethrowFrameError(e);
    }

    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (!filled[i]) {
            throw ServiceError(errProtocol,
                               "daemon finished the batch without a "
                               "result for index " +
                                   std::to_string(i));
        }
    }
    if (firstFailed < requests.size()) {
        fatal("sweep '%s': request [%s] failed: %s",
              sweep_name.c_str(),
              requests[firstFailed].label().c_str(),
              firstError.c_str());
    }

    harness::SweepProfile profile;
    profile.tally(outcomes);
    profile.workers = done->jobs;
    profile.tasksPrepared = done->tasksPrepared;
    profile.tasksReused = done->tasksReused;
    profile.sweepWallMillis =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - batch_t0)
            .count();

    // Cache occupancy in the manifest profile reflects the daemon's
    // shared caches, fetched after the batch like SweepRunner snapshots
    // its own caches after the publish loop.
    profile.cache = queryStats().cache;

    progress.summary(sweep_name, profile, true);
    if (!opts.jsonDir.empty()) {
        // Prefer the daemon-rendered bodies: that both backends
        // produce the same bytes is the contract.
        harness::writeSweepArtefacts(opts.jsonDir, sweep_name, outcomes,
                                     profile, &bodies);
    }
    return outcomes;
}

ServiceStats
RemoteService::stats()
{
    std::scoped_lock lock(mtx);
    return queryStats();
}

ServiceStats
RemoteService::queryStats()
{
    const json::JsonValue v =
        roundTrip(conn.get(), encodeStatsQuery(), &meter);
    auto stats = statsFromJson(v);
    if (!stats) {
        throw ServiceError(errProtocol,
                           "expected stats, got '" + messageType(v) +
                               "'");
    }
    return *stats;
}

bool
RemoteService::ping()
{
    std::scoped_lock lock(mtx);
    try {
        return messageType(roundTrip(conn.get(), encodePing(),
                                     &meter)) == "pong";
    } catch (const ServiceError &) {
        return false;
    }
}

} // namespace capcheck::service
