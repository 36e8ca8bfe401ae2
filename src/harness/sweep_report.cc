#include "harness/sweep_report.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <unordered_set>

#include "base/logging.hh"

namespace capcheck::harness
{

void
ProgressLog::ran(const RunRequest &request, std::uint64_t cycles,
                 double wall_millis)
{
    if (!os)
        return;
    std::scoped_lock lock(mtx);
    *os << "[" << ++ranSoFar << "/" << fresh << "] " << request.label()
        << " cycles=" << cycles << " cache=miss wall="
        << static_cast<std::uint64_t>(wall_millis) << "ms\n";
    os->flush();
}

void
ProgressLog::cached(const RunRequest &request, std::uint64_t cycles)
{
    if (!os)
        return;
    std::scoped_lock lock(mtx);
    *os << "[cache] " << request.label() << " cycles=" << cycles
        << " cache=hit\n";
    os->flush();
}

void
ProgressLog::failed(const RunRequest &request, const std::string &error)
{
    if (!os)
        return;
    std::scoped_lock lock(mtx);
    *os << "[fail] " << request.label() << ": " << error << "\n";
    os->flush();
}

void
ProgressLog::summary(const std::string &sweep_name,
                     const SweepProfile &profile, bool remote)
{
    if (!os)
        return;
    std::scoped_lock lock(mtx);
    char util[16];
    std::snprintf(util, sizeof(util), "%.2f", profile.utilization());
    const auto ms = [](double millis) {
        return static_cast<std::uint64_t>(millis);
    };
    *os << "[sweep " << sweep_name << "] "
        << profile.executed + profile.cacheHits << " requests: "
        << profile.executed << " executed, " << profile.cacheHits
        << " cached, tasks=" << profile.tasksPrepared << " prepared/"
        << profile.tasksReused << " reused, wall="
        << ms(profile.sweepWallMillis) << "ms, jobs=" << profile.workers
        << ", utilization=" << util;
    if (profile.executed > 0) {
        *os << ", runWall=" << ms(profile.runWallMinMillis) << "/"
            << ms(profile.runWallP50Millis) << "/"
            << ms(profile.runWallMaxMillis) << "ms min/p50/max";
    }
    *os << (remote ? " (remote)\n" : "\n");
    os->flush();
}

void
writeSweepArtefacts(const std::string &dir, const std::string &sweep_name,
                    const std::vector<RunOutcome> &outcomes,
                    const SweepProfile &profile,
                    const std::vector<std::string> *bodies,
                    const std::vector<prof::RunProfile *> *profiles)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        warn("sweep '%s': cannot create json dir '%s': %s",
             sweep_name.c_str(), dir.c_str(), ec.message().c_str());
        return;
    }

    // A request repeated in the batch has one file: it is rendered
    // and written at its first occurrence only.
    std::unordered_set<std::string> written;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RunOutcome &o = outcomes[i];
        const std::string hash = o.request.hashHex();
        if (!written.insert(hash).second)
            continue;
        std::optional<prof::ProfileSession> session;
        if (profiles && (*profiles)[i])
            session.emplace(*(*profiles)[i]);
        const fs::path file = fs::path(dir) / ("run-" + hash + ".json");
        std::ofstream os(file);
        if (!os) {
            warn("cannot write '%s'", file.string().c_str());
            continue;
        }
        std::string text;
        const std::string *body =
            bodies && !(*bodies)[i].empty() ? &(*bodies)[i] : nullptr;
        if (!body) {
            PROF_SCOPE("harness", "render.runjson");
            text = runJson(o.request, o.result);
            body = &text;
        }
        PROF_SCOPE("harness", "write.results");
        os << *body;
    }

    const fs::path manifest =
        fs::path(dir) / (sweep_name + ".manifest.json");
    std::ofstream os(manifest);
    if (!os) {
        warn("cannot write '%s'", manifest.string().c_str());
        return;
    }
    os << manifestJson(sweep_name, outcomes, &profile);
}

} // namespace capcheck::harness
