#include "service/wire.hh"

#include <algorithm>
#include <sstream>

#include "base/json.hh"
#include "harness/result_json.hh"
#include "system/soc_config_builder.hh"

namespace capcheck::service
{

const char *
runStatusName(RunStatus status)
{
    switch (status) {
      case RunStatus::executed:
        return "executed";
      case RunStatus::cached:
        return "cached";
      case RunStatus::failed:
        return "failed";
    }
    return "?";
}

std::string
messageType(const json::JsonValue &v)
{
    const json::JsonValue *type = v.get("type");
    return type && type->isString() ? type->asString()
                                    : std::string();
}

namespace
{

std::string
oneKeyMessage(const char *type)
{
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("type").value(type);
    w.endObject();
    return os.str();
}

std::uint64_t
u64Field(const json::JsonValue &v, const char *key)
{
    const json::JsonValue *f = v.get(key);
    return f && f->isNumber()
               ? static_cast<std::uint64_t>(f->asNumber())
               : 0;
}

harness::CacheStats
cacheStatsFrom(const json::JsonValue *v)
{
    harness::CacheStats c;
    if (!v || !v->isObject())
        return c;
    c.entries = u64Field(*v, "entries");
    c.bytes = u64Field(*v, "bytes");
    c.hits = u64Field(*v, "hits");
    c.lookups = u64Field(*v, "lookups");
    c.evictions = u64Field(*v, "evictions");
    return c;
}

} // namespace

const std::string &
buildHash()
{
    // One canonical request whose hash folds in every cost parameter
    // and config field: if two builds would hash an experiment
    // differently, they disagree here too.
    static const std::string hash =
        harness::RunRequest::single(
            "aes", system::SocConfigBuilder()
                       .mode(system::SystemMode::ccpuCaccel)
                       .numInstances(2)
                       .seed(1)
                       .build())
            .hashHex();
    return hash;
}

std::string
encodePing()
{
    return oneKeyMessage("ping");
}

std::string
encodePong()
{
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("type").value("pong");
    w.key("protocol").value(protocolVersion);
    w.key("protocolVersion").value(protocolVersion);
    w.key("build").value(buildHash());
    w.endObject();
    return os.str();
}

std::optional<PongInfo>
pongFromJson(const json::JsonValue &v)
{
    if (!v.isObject() || messageType(v) != "pong")
        return std::nullopt;
    PongInfo info;
    // "protocolVersion" is the satellite-added alias; "protocol" is
    // the v1 field every daemon has sent since PR 6.
    const json::JsonValue *proto = v.get("protocolVersion");
    if (!proto)
        proto = v.get("protocol");
    info.protocol = proto && proto->isNumber()
                        ? static_cast<unsigned>(proto->asNumber())
                        : 0;
    const json::JsonValue *build = v.get("build");
    if (build && build->isString())
        info.build = build->asString();
    return info;
}

std::string
encodeStatsQuery()
{
    return oneKeyMessage("stats");
}

std::string
encodeStats(const ServiceStats &stats)
{
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("type").value("stats");
    w.key("executed").value(std::uint64_t{stats.executed});
    w.key("cacheHits").value(std::uint64_t{stats.cacheHits});
    w.key("jobs").value(stats.jobs);
    w.key("queueDepth").value(std::uint64_t{stats.queueDepth});
    w.key("activeClients").value(std::uint64_t{stats.activeClients});
    w.key("rejectedOverload")
        .value(std::uint64_t{stats.rejectedOverload});
    w.key("memCache");
    harness::writeCacheStatsJson(w, stats.cache.memory);
    if (stats.cache.diskPresent) {
        w.key("diskCache");
        harness::writeCacheStatsJson(w, stats.cache.disk);
    }
    if (stats.metricsPresent) {
        w.key("metrics");
        stats.metrics.writeJson(w);
    }
    w.endObject();
    return os.str();
}

std::optional<ServiceStats>
statsFromJson(const json::JsonValue &v)
{
    if (!v.isObject() || messageType(v) != "stats")
        return std::nullopt;
    ServiceStats s;
    s.executed = u64Field(v, "executed");
    s.cacheHits = u64Field(v, "cacheHits");
    s.jobs = static_cast<unsigned>(u64Field(v, "jobs"));
    s.queueDepth = u64Field(v, "queueDepth");
    s.activeClients = u64Field(v, "activeClients");
    s.rejectedOverload = u64Field(v, "rejectedOverload");
    s.cache.memory = cacheStatsFrom(v.get("memCache"));
    if (const json::JsonValue *disk = v.get("diskCache")) {
        s.cache.disk = cacheStatsFrom(disk);
        s.cache.diskPresent = true;
    }
    if (const json::JsonValue *metrics = v.get("metrics")) {
        if (auto snap = obs::MetricsSnapshot::fromJson(*metrics)) {
            s.metrics = std::move(*snap);
            s.metricsPresent = true;
        }
    }
    return s;
}

std::string
encodeSubmit(std::uint64_t batch, const std::string &sweep_name,
             const harness::SweepOptions &options,
             const std::vector<harness::RunRequest> &reqs)
{
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("type").value("submit");
    w.key("batch").value(std::uint64_t{batch});
    w.key("sweep").value(sweep_name);
    // Optional field: old daemons ignore unknown members, so the
    // protocol stays v1-compatible in both directions.
    if (!options.traceId.empty())
        w.key("traceId").value(options.traceId);
    w.key("options").beginObject();
    w.key("jsonDir").value(options.jsonDir);
    for (const harness::ObsSink &sink : harness::obsSinks()) {
        if (!sink.daemonWrites)
            continue;
        w.key(sink.wireKey);
        if (sink.dir)
            w.value(options.*sink.dir);
        else
            w.value(std::uint64_t{options.sampleInterval});
    }
    w.key("topN").value(options.topN);
    w.key("noCache").value(!options.cacheEnabled);
    w.endObject();
    w.key("requests").beginArray();
    for (const harness::RunRequest &req : reqs)
        harness::writeRequestWireJson(w, req);
    w.endArray();
    w.endObject();
    return os.str();
}

std::optional<SubmitMessage>
submitFromJson(const json::JsonValue &v, std::string *error)
{
    if (!v.isObject() || messageType(v) != "submit") {
        if (error)
            *error = "not a submit message";
        return std::nullopt;
    }
    SubmitMessage msg;
    msg.batch = u64Field(v, "batch");
    const json::JsonValue *sweep = v.get("sweep");
    msg.sweep = sweep && sweep->isString() ? sweep->asString()
                                           : std::string("sweep");
    const json::JsonValue *trace = v.get("traceId");
    if (trace && trace->isString())
        msg.options.traceId = trace->asString();
    if (const json::JsonValue *o = v.get("options");
        o && o->isObject()) {
        const auto str = [&](const char *key) -> std::string {
            const json::JsonValue *f = o->get(key);
            return f && f->isString() ? f->asString()
                                      : std::string();
        };
        msg.options.jsonDir = str("jsonDir");
        for (const harness::ObsSink &sink : harness::obsSinks()) {
            if (!sink.daemonWrites)
                continue;
            if (sink.dir)
                msg.options.*sink.dir = str(sink.wireKey);
            else
                msg.options.sampleInterval = u64Field(*o, sink.wireKey);
        }
        msg.options.topN =
            static_cast<unsigned>(u64Field(*o, "topN"));
        const json::JsonValue *nc = o->get("noCache");
        msg.options.cacheEnabled = !(nc && nc->isBool() && nc->asBool());
    }
    const json::JsonValue *reqs = v.get("requests");
    if (!reqs || !reqs->isArray()) {
        if (error)
            *error = "submit: missing 'requests' array";
        return std::nullopt;
    }
    msg.requests.reserve(reqs->elements().size());
    for (std::size_t i = 0; i < reqs->elements().size(); ++i) {
        std::string err;
        auto parsed =
            harness::requestFromWireJson(reqs->elements()[i], &err);
        if (!parsed) {
            if (error) {
                *error = "request " + std::to_string(i) + ": " + err;
            }
            return std::nullopt;
        }
        // Hash integrity: the client's claimed hash must match what
        // this build computes from the decoded fields.
        const json::JsonValue *claimed =
            reqs->elements()[i].get("hash");
        if (claimed && claimed->isString() &&
            claimed->asString() != parsed->hashHex()) {
            if (error) {
                *error = "request " + std::to_string(i) +
                         ": hash mismatch (client " +
                         claimed->asString() + ", server " +
                         parsed->hashHex() +
                         ") — client/server builds disagree";
            }
            return std::nullopt;
        }
        msg.requests.push_back(std::move(*parsed));
    }
    return msg;
}

std::string
encodeResult(std::uint64_t batch, std::size_t index,
             std::uint64_t hash, RunStatus status,
             const system::RunResult *result,
             const std::string *result_json, double wall_millis,
             const std::string &error)
{
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("type").value("result");
    w.key("batch").value(std::uint64_t{batch});
    w.key("index").value(std::uint64_t{index});
    w.key("hash").value(harness::hashHex(hash));
    w.key("status").value(runStatusName(status));
    w.key("wallMillis").value(wall_millis);
    if (!error.empty())
        w.key("error").value(error);
    if (result) {
        w.key("result");
        harness::writeResultWireJson(w, *result);
    }
    if (result_json)
        w.key("resultJson").value(*result_json);
    w.endObject();
    return os.str();
}

std::string
encodeDone(const DoneMessage &done)
{
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("type").value("done");
    w.key("batch").value(done.batch);
    w.key("executed").value(done.executed);
    w.key("cached").value(done.cached);
    w.key("failed").value(done.failed);
    w.key("jobs").value(done.jobs);
    w.key("tasksPrepared").value(done.tasksPrepared);
    w.key("tasksReused").value(done.tasksReused);
    w.endObject();
    return os.str();
}

std::optional<DoneMessage>
doneFromJson(const json::JsonValue &v)
{
    if (!v.isObject() || messageType(v) != "done")
        return std::nullopt;
    DoneMessage done;
    done.batch = u64Field(v, "batch");
    done.executed = u64Field(v, "executed");
    done.cached = u64Field(v, "cached");
    done.failed = u64Field(v, "failed");
    done.jobs = std::max<unsigned>(
        1, static_cast<unsigned>(u64Field(v, "jobs")));
    done.tasksPrepared = u64Field(v, "tasksPrepared");
    done.tasksReused = u64Field(v, "tasksReused");
    return done;
}

std::string
encodeError(const std::string &code, const std::string &message,
            std::optional<std::uint64_t> batch,
            unsigned retry_after_millis)
{
    std::ostringstream os;
    json::JsonWriter w(os);
    w.beginObject();
    w.key("type").value("error");
    w.key("code").value(code);
    w.key("message").value(message);
    if (batch)
        w.key("batch").value(std::uint64_t{*batch});
    if (retry_after_millis > 0)
        w.key("retryAfterMillis").value(retry_after_millis);
    w.endObject();
    return os.str();
}

} // namespace capcheck::service
