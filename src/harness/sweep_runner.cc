#include "harness/sweep_runner.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "base/logging.hh"
#include "obs/prof.hh"
#include "system/soc_config_builder.hh"
#include "system/task_memo.hh"

namespace capcheck::harness
{

namespace
{

/**
 * The pending jobs sharing a benchmark list and a seed. Their runs
 * prepare many of the same tasks, so one worker claims the family and
 * runs its jobs back to back, and they share one task memo that dies
 * with the family's last job. The family key only schedules: the
 * memo's exact key decides every reuse.
 */
struct Family
{
    std::vector<std::size_t> jobs; ///< indices into the jobs, most tasks first
    std::size_t next = 0;          ///< the next job to hand out
    std::size_t unfinished = 0;    ///< jobs not yet finished
    std::unique_ptr<system::TaskMemo> memo;
};

/** One unique simulation point within a batch. */
struct Job
{
    const RunRequest *request = nullptr;
    system::RunResult result;
    double wallMillis = 0;
    bool fromCache = false;
    /** SimError raised inside the worker, re-thrown on the caller. */
    std::string error;
    /** Host-time profile; one buffer per job, touched by exactly one
     *  thread at a time, so --jobs N never contends. */
    std::unique_ptr<prof::RunProfile> profile;
};

} // namespace

SweepRunner::SweepRunner(Options options) : opts(std::move(options))
{
    numJobs = opts.jobs != 0 ? opts.jobs
                             : std::thread::hardware_concurrency();
    if (numJobs == 0)
        numJobs = 1;
    if (!opts.cacheDir.empty()) {
        disk = std::make_unique<DiskResultCache>(opts.cacheDir,
                                                 opts.cacheMaxBytes);
    }
}

system::RunResult
SweepRunner::runOne(const RunRequest &request)
{
    return run({request}, "single").front().result;
}

std::vector<RunOutcome>
SweepRunner::run(const std::vector<RunRequest> &requests,
                 const std::string &sweep_name)
{
    const auto batch_t0 = std::chrono::steady_clock::now();

    // Fail fast on inconsistent configurations, before any thread
    // spends minutes simulating a meaningless point.
    for (const RunRequest &req : requests) {
        const std::string errors =
            system::validationErrors(req.config);
        if (!errors.empty()) {
            fatal("sweep '%s': invalid request [%s]: %s",
                  sweep_name.c_str(), req.label().c_str(),
                  errors.c_str());
        }
    }

    // Deduplicate at submission time so cache attribution does not
    // depend on worker timing: the first occurrence of each hash
    // simulates (unless a previous batch already cached it), every
    // later occurrence is a cache hit by construction.
    std::vector<Job> jobs;
    std::vector<std::size_t> jobOf(requests.size());
    std::map<std::uint64_t, std::size_t> firstJob;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::uint64_t h = requests[i].hash();
        const auto it = firstJob.find(h);
        if (opts.cacheEnabled && it != firstJob.end()) {
            jobOf[i] = it->second;
            continue;
        }
        Job job;
        job.request = &requests[i];
        if (opts.cacheEnabled) {
            if (auto cached = resultCache.lookup(h)) {
                job.result = std::move(*cached);
                job.fromCache = true;
            } else if (disk) {
                // Second-level lookup: results persisted by an
                // earlier process (or the daemon) sharing cacheDir.
                if (auto stored = disk->lookup(h)) {
                    resultCache.store(h, *stored);
                    job.result = std::move(*stored);
                    job.fromCache = true;
                }
            }
            firstJob.emplace(h, jobs.size());
        }
        jobOf[i] = jobs.size();
        jobs.push_back(std::move(job));
    }

    // Work queue over the jobs that actually need simulating.
    std::vector<std::size_t> pendingJobs;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (!jobs[j].fromCache)
            pendingJobs.push_back(j);
    }

    // Group the pending jobs into families, in order of first
    // appearance, each run with the most tasks first: a run with fewer
    // tasks of the same benchmarks and seed prepares a prefix of them.
    std::vector<Family> families;
    std::map<std::pair<std::vector<std::string>, std::uint64_t>, std::size_t>
        familyOf;
    for (const std::size_t j : pendingJobs) {
        const RunRequest &req = *jobs[j].request;
        const auto [it, fresh] = familyOf.try_emplace(
            {req.benchmarks, req.config.seed}, families.size());
        if (fresh)
            families.emplace_back();
        families[it->second].jobs.push_back(j);
    }
    for (Family &family : families) {
        std::stable_sort(family.jobs.begin(), family.jobs.end(),
                         [&](std::size_t a, std::size_t b) {
                             return jobs[a].request->numTasks >
                                    jobs[b].request->numTasks;
                         });
        family.unfinished = family.jobs.size();
        std::vector<system::RunKind> kinds;
        for (const std::size_t j : family.jobs)
            kinds.push_back(system::runKindOf(jobs[j].request->config.mode));
        family.memo = std::make_unique<system::TaskMemo>(kinds);
    }

    createObsDirs(opts);

    std::mutex progress_mtx;
    std::mutex sched_mtx;
    std::size_t nextFamily = 0;
    std::uint64_t tasksPrepared = 0;
    std::uint64_t tasksReused = 0;
    std::size_t done = 0;
    const std::size_t total = pendingJobs.size();

    // Hand out a job: the next of the worker's own family; else the
    // first of an unclaimed family, which becomes the worker's own;
    // else, once every family is claimed, one job stolen from the
    // family with the most jobs left. @return false when none is left.
    const auto take = [&](std::size_t &own, Family *&family,
                          std::size_t &job) {
        std::scoped_lock lock(sched_mtx);
        const auto jobsLeft = [&](std::size_t f) {
            return families[f].jobs.size() - families[f].next;
        };
        std::size_t from = own;
        if (from >= families.size() || jobsLeft(from) == 0) {
            if (nextFamily < families.size()) {
                from = own = nextFamily++;
            } else {
                from = families.size();
                for (std::size_t f = 0; f < families.size(); ++f) {
                    if (jobsLeft(f) > 0 &&
                        (from == families.size() ||
                         jobsLeft(f) > jobsLeft(from)))
                        from = f;
                }
                if (from == families.size())
                    return false;
            }
        }
        family = &families[from];
        job = family->jobs[family->next++];
        return true;
    };

    auto worker = [&]() {
        std::size_t own = families.size();
        Family *family = nullptr;
        std::size_t j = 0;
        while (take(own, family, j)) {
            Job &job = jobs[j];

            const obs::ObsOptions obsOpts =
                obsOptionsFor(opts, *job.request);
            if (obsOpts.profiling())
                job.profile = std::make_unique<prof::RunProfile>();

            const auto t0 = std::chrono::steady_clock::now();
            try {
                // The worker owns this SocSystem outright; the event
                // queue inside never crosses a thread boundary. The
                // profile session covers exactly this job, on this
                // thread, so scopes hit a private buffer.
                std::optional<prof::ProfileSession> session;
                if (job.profile)
                    session.emplace(*job.profile);
                job.result =
                    job.request->execute(obsOpts, family->memo.get());
            } catch (const SimError &e) {
                job.error = e.what();
            }
            const auto t1 = std::chrono::steady_clock::now();
            job.wallMillis =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();

            std::size_t finished;
            {
                // The family's last job takes its memo down with it.
                std::scoped_lock lock(sched_mtx);
                finished = ++done;
                if (--family->unfinished == 0) {
                    tasksPrepared += family->memo->tasksPrepared();
                    tasksReused += family->memo->tasksReused();
                    family->memo.reset();
                }
            }
            if (opts.progress) {
                std::scoped_lock lock(progress_mtx);
                *opts.progress
                    << "[" << finished << "/" << total << "] "
                    << job.request->label()
                    << " cycles=" << job.result.totalCycles
                    << " cache=miss wall="
                    << static_cast<std::uint64_t>(job.wallMillis)
                    << "ms\n";
                opts.progress->flush();
            }
        }
    };

    const unsigned nthreads = static_cast<unsigned>(
        std::min<std::size_t>(numJobs, total));
    if (nthreads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(nthreads);
        for (unsigned t = 0; t < nthreads; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    for (const std::size_t j : pendingJobs) {
        if (!jobs[j].error.empty()) {
            fatal("sweep '%s': request [%s] failed: %s",
                  sweep_name.c_str(), jobs[j].request->label().c_str(),
                  jobs[j].error.c_str());
        }
    }

    // Publish fresh results to the cache(s) and tally counters. The
    // store cost is attributed to the run that produced the result
    // (workers are joined, so reopening each job's session is safe).
    for (const std::size_t j : pendingJobs) {
        if (opts.cacheEnabled) {
            std::optional<prof::ProfileSession> session;
            if (jobs[j].profile)
                session.emplace(*jobs[j].profile);
            resultCache.store(jobs[j].request->hash(), jobs[j].result);
            if (disk)
                disk->store(jobs[j].request->hash(), jobs[j].result);
        }
        ++executed;
    }

    // Assemble outcomes in input order.
    std::vector<RunOutcome> outcomes;
    outcomes.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Job &job = jobs[jobOf[i]];
        RunOutcome out;
        out.request = requests[i];
        out.result = job.result;
        out.cacheHit = job.fromCache || job.request != &requests[i];
        out.wallMillis = out.cacheHit ? 0 : job.wallMillis;
        if (out.cacheHit)
            ++hits;
        if (opts.progress && out.cacheHit) {
            *opts.progress << "[cache] " << requests[i].label()
                           << " cycles=" << out.result.totalCycles
                           << " cache=hit\n";
        }
        outcomes.push_back(std::move(out));
    }

    SweepProfile profile;
    profile.workers = nthreads == 0 ? 1 : nthreads;
    profile.executed = total;
    profile.cacheHits = requests.size() - total;
    profile.tasksPrepared = tasksPrepared;
    profile.tasksReused = tasksReused;
    for (const std::size_t j : pendingJobs)
        profile.simWallMillis += jobs[j].wallMillis;
    profile.sweepWallMillis =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - batch_t0)
            .count();
    profile.memCache = resultCache.stats();
    if (disk) {
        profile.diskCache = disk->stats();
        profile.diskCachePresent = true;
    }

    // Per-run wall-clock spread: a grid with one pathological point
    // looks healthy as a sum; min/p50/max makes the skew visible.
    if (!pendingJobs.empty()) {
        std::vector<double> walls;
        walls.reserve(pendingJobs.size());
        for (const std::size_t j : pendingJobs)
            walls.push_back(jobs[j].wallMillis);
        std::sort(walls.begin(), walls.end());
        profile.runWallMinMillis = walls.front();
        profile.runWallP50Millis = walls[walls.size() / 2];
        profile.runWallMaxMillis = walls.back();
    }

    if (opts.progress) {
        char util[16];
        std::snprintf(util, sizeof(util), "%.2f",
                      profile.utilization());
        *opts.progress << "[sweep " << sweep_name << "] "
                       << requests.size() << " requests: "
                       << profile.executed << " executed, "
                       << profile.cacheHits << " cached, tasks="
                       << profile.tasksPrepared << " prepared/"
                       << profile.tasksReused << " reused, wall="
                       << static_cast<std::uint64_t>(
                              profile.sweepWallMillis)
                       << "ms, jobs=" << profile.workers
                       << ", utilization=" << util;
        if (profile.executed > 0) {
            *opts.progress
                << ", runWall="
                << static_cast<std::uint64_t>(
                       profile.runWallMinMillis)
                << "/"
                << static_cast<std::uint64_t>(
                       profile.runWallP50Millis)
                << "/"
                << static_cast<std::uint64_t>(
                       profile.runWallMaxMillis)
                << "ms min/p50/max";
        }
        *opts.progress << "\n";
        opts.progress->flush();
    }

    std::map<std::uint64_t, prof::RunProfile *> profiles;
    for (const std::size_t j : pendingJobs) {
        if (jobs[j].profile)
            profiles.emplace(jobs[j].request->hash(),
                             jobs[j].profile.get());
    }

    if (!opts.jsonDir.empty()) {
        writeJson(outcomes, sweep_name, profile,
                  profiles.empty() ? nullptr : &profiles);
    }

    // All attribution windows are closed: render the profiles. Like
    // every other artefact, only fresh simulations produce files.
    for (const std::size_t j : pendingJobs) {
        const Job &job = jobs[j];
        if (!job.profile)
            continue;
        const obs::ObsOptions oo = obsOptionsFor(opts, *job.request);
        if (!oo.profileFile.empty()) {
            std::ofstream os(oo.profileFile);
            if (os)
                os << job.profile->json(job.request->label());
            else
                warn("cannot write '%s'", oo.profileFile.c_str());
        }
        if (!oo.foldedFile.empty()) {
            std::ofstream os(oo.foldedFile);
            if (os)
                os << job.profile->foldedText();
            else
                warn("cannot write '%s'", oo.foldedFile.c_str());
        }
    }

    return outcomes;
}

void
SweepRunner::writeJson(
    const std::vector<RunOutcome> &outcomes,
    const std::string &sweep_name, const SweepProfile &profile,
    const std::map<std::uint64_t, prof::RunProfile *> *profiles) const
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

    for (const RunOutcome &o : outcomes) {
        std::optional<prof::ProfileSession> session;
        if (profiles) {
            const auto it = profiles->find(o.request.hash());
            if (it != profiles->end())
                session.emplace(*it->second);
        }
        const fs::path file =
            fs::path(opts.jsonDir) /
            ("run-" + o.request.hashHex() + ".json");
        std::ofstream os(file);
        if (!os) {
            warn("cannot write '%s'", file.string().c_str());
            continue;
        }
        std::string text;
        {
            PROF_SCOPE("harness", "render.runjson");
            text = runJson(o.request, o.result);
        }
        {
            PROF_SCOPE("harness", "write.results");
            os << text;
        }
    }

    const fs::path manifest =
        fs::path(opts.jsonDir) / (sweep_name + ".manifest.json");
    std::ofstream os(manifest);
    if (!os) {
        warn("cannot write '%s'", manifest.string().c_str());
        return;
    }
    os << manifestJson(sweep_name, outcomes, &profile);
}

} // namespace capcheck::harness
