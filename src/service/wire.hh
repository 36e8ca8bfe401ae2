/**
 * @file
 * JSON message bodies of the capcheckd protocol — the layer between
 * the framing (service/frame.hh) and the client/server state
 * machines. Every message is one JSON object with a "type" member:
 *
 *   client → server: "ping", "stats", "submit"
 *   server → client: "pong", "stats", "result", "done", "error"
 *
 * Submitted requests travel in the full-fidelity wire encoding
 * (harness::writeRequestWireJson), and the server re-hashes each
 * parsed request against the client-claimed hash, so a client and
 * daemon built from diverging trees fail loudly instead of silently
 * keying different experiments to the same cache entry.
 */

#ifndef CAPCHECK_SERVICE_WIRE_HH
#define CAPCHECK_SERVICE_WIRE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/json_value.hh"
#include "harness/run_request.hh"
#include "harness/sweep_options.hh"
#include "service/sweep_service.hh"

namespace capcheck::service
{

/** Protocol revision carried in "pong"; bumped on breaking changes. */
inline constexpr unsigned protocolVersion = 1;

/**
 * Hex hash identifying this build's request-hashing behaviour: the
 * content hash of one canonical RunRequest. Two binaries that would
 * key the same experiment differently (diverging cost tables, config
 * fields, hash function) disagree on it, so a client can warn about
 * build skew at ping time instead of discovering it at re-hash time
 * mid-submit. Computed once, then cached.
 */
const std::string &buildHash();

/** Parsed "pong" reply. */
struct PongInfo
{
    unsigned protocol = 0;
    /** Daemon's buildHash(); empty from pre-telemetry daemons. */
    std::string build;
};

/** Decode a pong message; nullopt when @p v is not a pong. */
std::optional<PongInfo> pongFromJson(const json::JsonValue &v);

/** Parsed "submit" message. */
struct SubmitMessage
{
    std::uint64_t batch = 0;
    std::string sweep;
    /**
     * The subset of the client's options the daemon acts on: jsonDir
     * (results are written client-side, but samples fall back to it),
     * every obsSinks() directory the daemon writes (into client-chosen
     * directories — the transport is a local socket, so both ends
     * share a filesystem), topN, cacheEnabled, and traceId (optional
     * on the wire; empty means the daemon synthesizes one). Every
     * other field keeps its default.
     */
    harness::SweepOptions options;
    std::vector<harness::RunRequest> requests;
};

/** The "done" frame that closes a batch's result stream. */
struct DoneMessage
{
    std::uint64_t batch = 0;
    /** @{ Answers by status; they add up to the batch size. */
    std::uint64_t executed = 0;
    std::uint64_t cached = 0;
    std::uint64_t failed = 0;
    /** @} */
    /** The daemon's worker count; at least 1. */
    unsigned jobs = 1;
    /** @{ Task preparations of the batch's fresh runs, summed over its
     *  families. Optional on the wire: absent reads as 0. */
    std::uint64_t tasksPrepared = 0;
    std::uint64_t tasksReused = 0;
    /** @} */
};

/** The "type" member; empty when absent/ill-typed. */
std::string messageType(const json::JsonValue &v);

/** @{ Encoders. Each returns a complete frame payload. */
std::string encodePing();
std::string encodePong();
std::string encodeStatsQuery();
std::string encodeStats(const ServiceStats &stats);
std::string encodeSubmit(std::uint64_t batch,
                         const std::string &sweep_name,
                         const harness::SweepOptions &options,
                         const std::vector<harness::RunRequest> &reqs);
std::string encodeResult(std::uint64_t batch, std::size_t index,
                         std::uint64_t hash, RunStatus status,
                         const system::RunResult *result,
                         const std::string *result_json,
                         double wall_millis,
                         const std::string &error);
std::string encodeDone(const DoneMessage &done);
std::string encodeError(const std::string &code,
                        const std::string &message,
                        std::optional<std::uint64_t> batch,
                        unsigned retry_after_millis = 0);
/** @} */

/** @{ Decoders; nullopt (with @p error filled) on shape errors. */
std::optional<SubmitMessage>
submitFromJson(const json::JsonValue &v, std::string *error);

std::optional<ServiceStats> statsFromJson(const json::JsonValue &v);

std::optional<DoneMessage> doneFromJson(const json::JsonValue &v);
/** @} */

} // namespace capcheck::service

#endif // CAPCHECK_SERVICE_WIRE_HH
