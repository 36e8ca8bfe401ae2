#include "harness/sweep_runner.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "base/logging.hh"
#include "harness/family_queue.hh"
#include "harness/sweep_report.hh"
#include "obs/prof.hh"

namespace capcheck::harness
{

namespace
{

/** One unique simulation point within a batch. */
struct Job
{
    const RunRequest *request = nullptr;
    TimedRun run;
    bool fromCache = false;
    /** Host-time profile; one buffer per job, touched by exactly one
     *  thread at a time, so --jobs N never contends. */
    std::unique_ptr<prof::RunProfile> profile;
};

} // namespace

SweepRunner::SweepRunner(Options options)
    : opts(std::move(options)), numJobs(resolveJobs(opts.jobs)),
      results(opts.cacheDir, opts.cacheMaxBytes)
{
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
    if (const std::string invalid = firstInvalid(requests);
        !invalid.empty())
        fatal("sweep '%s': %s", sweep_name.c_str(), invalid.c_str());

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
            if (auto hit = results.lookup(h)) {
                job.run.result = std::move(hit->result);
                job.fromCache = true;
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

    createObsDirs(opts);

    FamilyQueue<std::size_t> queue;
    queue.push(pendingJobs, [&](std::size_t j) -> const RunRequest & {
        return *jobs[j].request;
    });
    // Guards the queue and the counters below.
    std::mutex sched_mtx;
    std::uint64_t tasksPrepared = 0;
    std::uint64_t tasksReused = 0;
    const std::size_t total = pendingJobs.size();
    ProgressLog progress(opts.progress, total);

    auto worker = [&]() {
        FamilyQueue<std::size_t>::Lease lease;
        while (true) {
            {
                std::scoped_lock lock(sched_mtx);
                if (!queue.take(lease))
                    break;
            }
            Job &job = jobs[lease.item];

            // The worker owns this SocSystem outright; the event
            // queue inside never crosses a thread boundary.
            const obs::ObsOptions obsOpts =
                obsOptionsFor(opts, *job.request);
            if (obsOpts.profiling())
                job.profile = std::make_unique<prof::RunProfile>();
            job.run = runTimed(*job.request, obsOpts, lease.memo.get(),
                               job.profile.get());

            {
                std::scoped_lock lock(sched_mtx);
                if (const auto counts = queue.finish(lease)) {
                    tasksPrepared += counts->prepared;
                    tasksReused += counts->reused;
                }
            }
            progress.ran(*job.request, job.run.result.totalCycles,
                         job.run.wallMillis);
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
        if (!jobs[j].run.error.empty()) {
            fatal("sweep '%s': request [%s] failed: %s",
                  sweep_name.c_str(), jobs[j].request->label().c_str(),
                  jobs[j].run.error.c_str());
        }
    }

    // Publish fresh results to the cache(s). The store cost is
    // attributed to the run that produced the result (workers are
    // joined, so reopening each job's session is safe).
    for (const std::size_t j : pendingJobs) {
        if (!opts.cacheEnabled)
            continue;
        std::optional<prof::ProfileSession> session;
        if (jobs[j].profile)
            session.emplace(*jobs[j].profile);
        results.store(jobs[j].request->hash(), jobs[j].run.result);
    }

    // Assemble outcomes in input order.
    std::vector<RunOutcome> outcomes;
    outcomes.reserve(requests.size());
    std::vector<prof::RunProfile *> profiles(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Job &job = jobs[jobOf[i]];
        RunOutcome out;
        out.request = requests[i];
        out.result = job.run.result;
        out.cacheHit = job.fromCache || job.request != &requests[i];
        out.wallMillis = out.cacheHit ? 0 : job.run.wallMillis;
        if (out.cacheHit)
            progress.cached(requests[i], out.result.totalCycles);
        profiles[i] = job.profile.get();
        outcomes.push_back(std::move(out));
    }

    SweepProfile profile;
    profile.tally(outcomes);
    executed += profile.executed;
    hits += profile.cacheHits;
    profile.workers = nthreads == 0 ? 1 : nthreads;
    profile.tasksPrepared = tasksPrepared;
    profile.tasksReused = tasksReused;
    profile.sweepWallMillis =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - batch_t0)
            .count();
    profile.cache = results.stats();
    progress.summary(sweep_name, profile, false);

    if (!opts.jsonDir.empty()) {
        writeSweepArtefacts(opts.jsonDir, sweep_name, outcomes, profile,
                            nullptr, &profiles);
    }

    // All attribution windows are closed: render the profiles. Like
    // every other artefact, only fresh simulations produce files, one
    // per distinct request: the first occurrence's, whose profile
    // holds the render of its run-<hash>.json.
    std::set<std::uint64_t> profiled;
    for (const std::size_t j : pendingJobs) {
        const Job &job = jobs[j];
        if (!job.profile || !profiled.insert(job.request->hash()).second)
            continue;
        const obs::ObsOptions oo = obsOptionsFor(opts, *job.request);
        const auto write = [](const std::string &path, auto render) {
            if (path.empty())
                return;
            std::ofstream os(path);
            if (os)
                os << render();
            else
                warn("cannot write '%s'", path.c_str());
        };
        write(oo.profileFile,
              [&] { return job.profile->json(job.request->label()); });
        write(oo.foldedFile, [&] { return job.profile->foldedText(); });
    }

    return outcomes;
}

} // namespace capcheck::harness
