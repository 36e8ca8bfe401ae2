#include "live.hh"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "base/json_value.hh"
#include "base/table.hh"
#include "obs/metrics.hh"
#include "service/remote.hh"
#include "service/socket.hh"
#include "service/sweep_service.hh"
#include "service/wire.hh"

namespace capcheck::tools
{

namespace
{

using service::Fd;

std::string
u64s(std::uint64_t v)
{
    return std::to_string(v);
}

void
renderSnapshot(std::ostream &os, const service::ServiceStats &stats,
               unsigned poll)
{
    const obs::MetricsSnapshot &m = stats.metrics;
    os << "-- poll " << poll << " --\n";
    const double upSeconds =
        static_cast<double>(m.gaugeValue("uptime.millis")) / 1000.0;
    os << "  up " << fmtDouble(upSeconds, 1) << "s, "
       << m.gaugeValue("workers.total") << " workers ("
       << m.gaugeValue("workers.busy") << " busy), clients="
       << m.gaugeValue("clients.active")
       << " queue=" << m.gaugeValue("queue.depth")
       << " inflight=" << m.gaugeValue("requests.inflight") << "\n";
    os << "  batches: received="
       << m.counterValue("batches.received")
       << " admitted=" << m.counterValue("batches.admitted")
       << " rejected=" << m.counterValue("batches.rejected") << "\n";
    os << "  requests: received="
       << m.counterValue("requests.received")
       << " admitted=" << m.counterValue("requests.admitted")
       << " executed=" << m.counterValue("requests.executed")
       << " failed=" << m.counterValue("requests.failed")
       << " cacheHits[mem=" << m.counterValue("requests.cacheHitsMem")
       << " disk=" << m.counterValue("requests.cacheHitsDisk")
       << " coalesced=" << m.counterValue("requests.coalesced")
       << "]\n";
    os << "  cache: mem " << m.gaugeValue("cache.mem.entries")
       << " entries / " << m.gaugeValue("cache.mem.bytes") << " B";
    if (stats.cache.diskPresent) {
        os << ", disk " << m.gaugeValue("cache.disk.entries")
           << " entries / " << m.gaugeValue("cache.disk.bytes")
           << " B";
    }
    os << "\n";
    os << "  wire: in " << m.counterValue("frames.in") << " frames / "
       << m.counterValue("bytes.in") << " B, out "
       << m.counterValue("frames.out") << " frames / "
       << m.counterValue("bytes.out") << " B\n";

    TextTable table({"span", "samples", "p50us", "p95us", "p99us",
                     "meanUs", "maxUs"});
    for (const obs::MetricsSnapshot::Histo &h : m.histograms) {
        if (h.name.rfind("span.", 0) != 0)
            continue;
        table.addRow({h.name.substr(std::strlen("span.")),
                      u64s(h.samples), fmtDouble(h.p50, 1),
                      fmtDouble(h.p95, 1), fmtDouble(h.p99, 1),
                      fmtDouble(h.mean(), 1), u64s(h.max)});
    }
    if (table.rows() > 0)
        table.print(os);

    // Host-time attribution from the worker pool's self-profiler:
    // prof.<domain>.selfNanos / prof.<domain>.calls counters, shares
    // against the profiled wall total.
    const std::uint64_t profWall = m.counterValue("prof.wallNanos");
    if (profWall > 0) {
        os << "  host profile: "
           << fmtDouble(static_cast<double>(profWall) / 1e9, 2)
           << "s profiled across executed requests\n";
        TextTable prof({"domain", "selfMs", "share", "calls"});
        const std::string prefix = "prof.";
        const std::string suffix = ".selfNanos";
        for (const obs::MetricsSnapshot::Counter &c : m.counters) {
            if (c.name.rfind(prefix, 0) != 0 ||
                c.name.size() <= prefix.size() + suffix.size() ||
                c.name.compare(c.name.size() - suffix.size(),
                               suffix.size(), suffix) != 0)
                continue;
            const std::string domain = c.name.substr(
                prefix.size(),
                c.name.size() - prefix.size() - suffix.size());
            prof.addRow(
                {domain,
                 fmtDouble(static_cast<double>(c.value) / 1e6, 1),
                 fmtDouble(static_cast<double>(c.value) /
                               static_cast<double>(profWall),
                           3),
                 u64s(m.counterValue(prefix + domain + ".calls"))});
        }
        if (prof.rows() > 0)
            prof.print(os);
    }
}

} // namespace

bool
parseLiveArgs(const std::vector<std::string> &args, LiveOptions &opts,
              std::string *error)
{
    const auto bad = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto value = [&](const char *flag,
                               std::string &out) -> bool {
            const std::string eq = std::string(flag) + "=";
            if (arg == flag) {
                if (i + 1 >= args.size())
                    return false;
                out = args[++i];
                return true;
            }
            if (arg.rfind(eq, 0) == 0) {
                out = arg.substr(eq.size());
                return true;
            }
            return false;
        };
        std::string v;
        if (arg == "--once") {
            opts.once = true;
        } else if (arg == "--interval" ||
                   arg.rfind("--interval=", 0) == 0) {
            if (!value("--interval", v))
                return bad("--interval needs milliseconds");
            opts.intervalMillis =
                static_cast<unsigned>(std::atoi(v.c_str()));
        } else if (arg == "--count" ||
                   arg.rfind("--count=", 0) == 0) {
            if (!value("--count", v))
                return bad("--count needs a poll count");
            opts.count =
                static_cast<unsigned>(std::atoi(v.c_str()));
        } else if (arg == "--latency-out" ||
                   arg.rfind("--latency-out=", 0) == 0) {
            if (!value("--latency-out", v))
                return bad("--latency-out needs a file");
            opts.latencyOut = v;
        } else if (arg == "--label" ||
                   arg.rfind("--label=", 0) == 0) {
            if (!value("--label", v))
                return bad("--label needs a run label");
            opts.label = v;
        } else if (!arg.empty() && arg[0] == '-') {
            return bad("unknown live option '" + arg + "'");
        } else if (opts.socketPath.empty()) {
            opts.socketPath = arg;
        } else {
            return bad("live takes exactly one socket path");
        }
    }
    if (opts.socketPath.empty())
        return bad("live needs the daemon socket path");
    if (opts.once)
        opts.count = 1;
    return true;
}

int
runLive(std::ostream &os, const LiveOptions &opts)
{
    std::string err;
    Fd conn = service::connectUnix(opts.socketPath, &err);
    if (!conn.valid()) {
        os << "capstat: cannot connect to capcheckd at '"
           << opts.socketPath << "': " << err << "\n";
        return 2;
    }

    try {
        const json::JsonValue pongv =
            service::roundTrip(conn.get(), service::encodePing());
        const auto pong = service::pongFromJson(pongv);
        if (!pong) {
            os << "capstat: expected pong, got '"
               << service::messageType(pongv) << "'\n";
            return 2;
        }
        os << "capcheckd on " << opts.socketPath << ": protocol "
           << pong->protocol << ", build "
           << (pong->build.empty() ? "(unknown)" : pong->build)
           << "\n";
        if (pong->protocol != service::protocolVersion) {
            os << "capstat: warning: protocol skew (this capstat "
               << "speaks " << service::protocolVersion << ")\n";
        }
        if (!pong->build.empty() &&
            pong->build != service::buildHash()) {
            os << "capstat: warning: build skew (this capstat is "
               << service::buildHash() << ")\n";
        }

        service::ServiceStats last;
        for (unsigned poll = 1;
             opts.count == 0 || poll <= opts.count; ++poll) {
            const json::JsonValue sv =
                service::roundTrip(conn.get(),
                                   service::encodeStatsQuery());
            // Every protocol-v1 daemon's stats reply carries its
            // metrics registry.
            auto stats = service::statsFromJson(sv);
            if (!stats || !stats->metricsPresent) {
                os << "capstat: expected stats with a metrics registry "
                   << "(protocol " << service::protocolVersion
                   << "), got '" << service::messageType(sv) << "'\n";
                return 2;
            }
            renderSnapshot(os, *stats, poll);
            os.flush();
            last = std::move(*stats);
            if (opts.count == 0 || poll < opts.count) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(
                        opts.intervalMillis));
            }
        }

        if (!opts.latencyOut.empty()) {
            std::ofstream lf(opts.latencyOut, std::ios::trunc);
            if (!lf) {
                os << "capstat: cannot write '" << opts.latencyOut
                   << "'\n";
                return 2;
            }
            lf << last.metrics.serviceLatencyJson(opts.label);
        }
    } catch (const service::ServiceError &e) {
        os << "capstat: " << e.what() << "\n";
        return 2;
    }
    return 0;
}

} // namespace capcheck::tools
