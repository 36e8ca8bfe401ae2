#include "service/remote.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "base/logging.hh"
#include "service/frame.hh"
#include "service/wire.hh"

namespace capcheck::service
{

namespace
{

std::uint64_t
hashFromHex(const std::string &hex)
{
    return std::strtoull(hex.c_str(), nullptr, 16);
}

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

/** Throw when the server itself reported a structured error. */
void
throwIfErrorFrame(const json::JsonValue &v)
{
    if (messageType(v) != "error")
        return;
    const json::JsonValue *code = v.get("code");
    const json::JsonValue *message = v.get("message");
    throw ServiceError(
        code && code->isString() ? code->asString() : errProtocol,
        message && message->isString() ? message->asString()
                                       : "daemon error");
}

json::JsonValue
parseFrame(const std::string &payload)
{
    std::string err;
    auto v = json::parseJson(payload, &err);
    if (!v) {
        throw ServiceError(errProtocol,
                           "unparseable frame from daemon: " + err);
    }
    return std::move(*v);
}

} // namespace

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
    const json::JsonValue pongv = parseFrame(roundTrip(encodePing()));
    throwIfErrorFrame(pongv);
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

std::string
RemoteService::roundTrip(const std::string &payload)
{
    try {
        sendFrame(conn.get(), payload, &meter);
        auto reply = recvFrame(conn.get(), defaultMaxFrameBytes,
                               &meter);
        if (!reply) {
            throw ServiceError(errConnect,
                               "daemon closed the connection");
        }
        return std::move(*reply);
    } catch (const FrameError &e) {
        rethrowFrameError(e);
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

    harness::SweepProfile profile;
    std::size_t executedSeen = 0;
    std::size_t firstFailed = requests.size();
    std::string firstError;

    try {
        sendFrame(conn.get(),
                  encodeSubmit(batch, sweep_name, opts, requests),
                  &meter);
        bool done = false;
        while (!done) {
            auto payload = recvFrame(conn.get(),
                                     defaultMaxFrameBytes, &meter);
            if (!payload) {
                throw ServiceError(
                    errConnect,
                    "daemon closed the connection mid-batch");
            }
            const json::JsonValue v = parseFrame(*payload);
            throwIfErrorFrame(v);
            const std::string type = messageType(v);
            if (type == "result") {
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
                if (status == "failed") {
                    const json::JsonValue *em = v.get("error");
                    if (firstFailed == requests.size()) {
                        firstFailed = i;
                        firstError = em && em->isString()
                                         ? em->asString()
                                         : "simulation failed";
                    }
                } else {
                    const json::JsonValue *res = v.get("result");
                    std::string perr = "missing 'result'";
                    std::optional<system::RunResult> parsed;
                    if (res)
                        parsed =
                            harness::resultFromWireJson(*res, &perr);
                    if (!parsed) {
                        throw ServiceError(
                            errProtocol,
                            "result frame for index " +
                                std::to_string(i) +
                                " unparseable: " + perr);
                    }
                    out.result = std::move(*parsed);
                    out.cacheHit = status == "cached";
                    out.wallMillis = out.cacheHit ? 0 : wallMillis;
                    if (const json::JsonValue *rj =
                            v.get("resultJson");
                        rj && rj->isString())
                        bodies[i] = rj->asString();
                    if (!out.cacheHit)
                        profile.simWallMillis += wallMillis;
                }

                if (opts.progress) {
                    // The fresh-simulation total is only known at the
                    // done frame, so remote progress counts against
                    // the batch size instead.
                    if (status == "cached") {
                        *opts.progress
                            << "[cache] " << requests[i].label()
                            << " cycles=" << out.result.totalCycles
                            << " cache=hit\n";
                    } else if (status == "failed") {
                        *opts.progress
                            << "[fail] " << requests[i].label()
                            << ": " << firstError << "\n";
                    } else {
                        ++executedSeen;
                        *opts.progress
                            << "[" << executedSeen << "/"
                            << requests.size() << "] "
                            << requests[i].label()
                            << " cycles=" << out.result.totalCycles
                            << " cache=miss wall="
                            << static_cast<std::uint64_t>(wallMillis)
                            << "ms\n";
                    }
                    opts.progress->flush();
                }

                if (sink) {
                    StreamItem item;
                    item.index = i;
                    const json::JsonValue *hx = v.get("hash");
                    item.hash = hx && hx->isString()
                                    ? hashFromHex(hx->asString())
                                    : requests[i].hash();
                    item.status = status == "cached"
                                      ? RunStatus::cached
                                  : status == "failed"
                                      ? RunStatus::failed
                                      : RunStatus::executed;
                    item.result =
                        status == "failed" ? nullptr : &out.result;
                    item.resultJson =
                        bodies[i].empty() ? nullptr : &bodies[i];
                    item.wallMillis = out.wallMillis;
                    if (status == "failed")
                        item.error = firstError;
                    sink(item);
                }
            } else if (type == "done") {
                const json::JsonValue *jb = v.get("jobs");
                profile.workers =
                    jb && jb->isNumber()
                        ? static_cast<unsigned>(jb->asNumber())
                        : 1;
                const auto u64 = [&](const char *key)
                    -> std::uint64_t {
                    const json::JsonValue *f = v.get(key);
                    return f && f->isNumber()
                               ? static_cast<std::uint64_t>(
                                     f->asNumber())
                               : 0;
                };
                profile.executed = u64("executed");
                profile.cacheHits = u64("cached");
                done = true;
            } else {
                throw ServiceError(errProtocol,
                                   "unexpected frame '" + type +
                                       "' mid-batch");
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

    profile.sweepWallMillis =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - batch_t0)
            .count();

    // Cache occupancy in the manifest profile reflects the daemon's
    // shared caches, fetched after the batch like SweepRunner snapshots
    // its own caches after the publish loop.
    {
        const json::JsonValue sv =
            parseFrame(roundTrip(encodeStatsQuery()));
        throwIfErrorFrame(sv);
        if (auto stats = statsFromJson(sv)) {
            profile.memCache = stats->memCache;
            profile.diskCache = stats->diskCache;
            profile.diskCachePresent = stats->diskCachePresent;
        }
    }

    if (opts.progress) {
        char util[16];
        std::snprintf(util, sizeof(util), "%.2f",
                      profile.utilization());
        *opts.progress << "[sweep " << sweep_name << "] "
                       << requests.size() << " requests: "
                       << profile.executed << " executed, "
                       << profile.cacheHits << " cached, wall="
                       << static_cast<std::uint64_t>(
                              profile.sweepWallMillis)
                       << "ms, jobs=" << profile.workers
                       << ", utilization=" << util << " (remote)\n";
        opts.progress->flush();
    }

    if (!opts.jsonDir.empty())
        writeArtefacts(outcomes, bodies, sweep_name, profile);

    return outcomes;
}

void
RemoteService::writeArtefacts(
    const std::vector<harness::RunOutcome> &outcomes,
    const std::vector<std::string> &result_bodies,
    const std::string &sweep_name,
    const harness::SweepProfile &profile) const
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(opts.jsonDir, ec);
    if (ec) {
        warn("sweep '%s': cannot create json dir '%s': %s",
             sweep_name.c_str(), opts.jsonDir.c_str(),
             ec.message().c_str());
        return;
    }

    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const harness::RunOutcome &o = outcomes[i];
        const fs::path file =
            fs::path(opts.jsonDir) /
            ("run-" + o.request.hashHex() + ".json");
        std::ofstream os(file);
        if (!os) {
            warn("cannot write '%s'", file.string().c_str());
            continue;
        }
        // Prefer the daemon-rendered body (it is the contract that
        // both backends produce the same bytes); fall back to local
        // rendering when the daemon was asked not to ship bodies.
        if (!result_bodies[i].empty())
            os << result_bodies[i];
        else
            os << harness::runJson(o.request, o.result);
    }

    const fs::path manifest =
        fs::path(opts.jsonDir) / (sweep_name + ".manifest.json");
    std::ofstream os(manifest);
    if (!os) {
        warn("cannot write '%s'", manifest.string().c_str());
        return;
    }
    os << harness::manifestJson(sweep_name, outcomes, &profile);
}

ServiceStats
RemoteService::stats()
{
    std::scoped_lock lock(mtx);
    const json::JsonValue v =
        parseFrame(roundTrip(encodeStatsQuery()));
    throwIfErrorFrame(v);
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
        const json::JsonValue v = parseFrame(roundTrip(encodePing()));
        return messageType(v) == "pong";
    } catch (const ServiceError &) {
        return false;
    }
}

} // namespace capcheck::service
