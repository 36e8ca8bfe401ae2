/**
 * @file
 * perfbench: the workload runner behind run.py. It runs one benchmark
 * workload through the simulator's public entry points only
 * (SweepService::submit/stats, in-process and against a spawned
 * capcheckd; RunRequest; the TaggedMemory, Topology and Elaborator
 * constructors), checks every result, and writes the raw samples as
 * one JSON document: set-up times, per-pass wall and simulation time,
 * per-run and per-request times, the exact simulated sums and, for a
 * traced run, the capprof books. run.py turns the samples into
 * metrics; README.md defines them.
 *
 * Usage:
 *   perfbench --workload paper_grid|service_mix
 *             --seed N --seconds S --trace 0|1
 *             --work-dir DIR --out FILE
 *             [--capcheckd PATH] [--setups K]
 *
 * The work directory holds every file a run writes (result JSON,
 * profiles, the daemon's socket and disk cache); run.py removes it.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hh"
#include "base/json_value.hh"
#include "base/random.hh"
#include "harness/run_request.hh"
#include "harness/sweep_options.hh"
#include "mem/tagged_memory.hh"
#include "obs/prof.hh"
#include "service/inprocess.hh"
#include "service/remote.hh"
#include "sim/eventq.hh"
#include "system/elaborator.hh"
#include "system/soc_config_builder.hh"
#include "system/topology.hh"
#include "workloads/kernel.hh"

extern char **environ;

namespace
{

using namespace capcheck;
using harness::RunRequest;
using system::SystemMode;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
millisSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e3;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string workDir;
    std::string out;
    std::string capcheckd;
    unsigned setups = 3;
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usageError(arg + " needs a value");
        const std::string v = argv[++i];
        if (arg == "--workload")
            o.workload = v;
        else if (arg == "--seed")
            o.seed = std::stoull(v);
        else if (arg == "--seconds")
            o.seconds = std::stod(v);
        else if (arg == "--trace")
            o.trace = v != "0";
        else if (arg == "--work-dir")
            o.workDir = v;
        else if (arg == "--out")
            o.out = v;
        else if (arg == "--capcheckd")
            o.capcheckd = v;
        else if (arg == "--setups")
            o.setups = static_cast<unsigned>(std::stoul(v));
        else
            usageError("unknown option " + arg);
    }
    if (o.workDir.empty() || o.out.empty())
        usageError("--work-dir and --out are required");
    if (o.setups == 0)
        usageError("--setups must be at least 1");
    return o;
}

/** Worker threads: the host's cores, at most the four the workloads
 *  are sized for. */
unsigned
hostJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return std::clamp(n, 1u, 4u);
}

// ---------------------------------------------------------------------
// Request sets: the batches the figure harnesses (bench/fig*.cc) submit,
// in their order. Every point seed is the harness's plus @p shift, so
// shift 0 reproduces the harnesses' exact points and any other shift is
// held-out input of the same shape.
// ---------------------------------------------------------------------

using Batch = std::vector<RunRequest>;

/** The point-seed shift of workload seed @p seed: the seed itself,
 *  folded below 2^40. The service wire carries numbers as doubles, so a
 *  point seed must stay well under 2^53 to reach capcheckd unchanged
 *  (a rounded seed fails the daemon's request-hash check). */
std::uint64_t
pointShift(std::uint64_t seed)
{
    return seed % (std::uint64_t{1} << 40);
}

system::SocConfig
modeConfig(SystemMode mode, std::uint64_t seed)
{
    return system::SocConfigBuilder().mode(mode).seed(seed).build();
}

/** Every benchmark under two modes: Fig. 7 (cpu, ccpu+caccel) and
 *  Fig. 8 (ccpu+accel, ccpu+caccel). */
Batch
modePairBatch(SystemMode a, SystemMode b, std::uint64_t shift)
{
    Batch reqs;
    for (const std::string &name : workloads::allKernelNames()) {
        reqs.push_back(RunRequest::single(name, modeConfig(a, 1 + shift)));
        reqs.push_back(RunRequest::single(name, modeConfig(b, 1 + shift)));
    }
    return reqs;
}

Batch
fig7Batch(std::uint64_t shift)
{
    return modePairBatch(SystemMode::cpu, SystemMode::ccpuCaccel, shift);
}

Batch
fig8Batch(std::uint64_t shift)
{
    return modePairBatch(SystemMode::ccpuAccel, SystemMode::ccpuCaccel,
                         shift);
}

/** Fig. 10: every benchmark under every mode. */
Batch
fig10Batch(std::uint64_t shift)
{
    Batch reqs;
    const SystemMode all_modes[] = {
        SystemMode::cpu, SystemMode::ccpu, SystemMode::cpuAccel,
        SystemMode::ccpuAccel, SystemMode::ccpuCaccel};
    for (const std::string &name : workloads::allKernelNames())
        for (const SystemMode mode : all_modes)
            reqs.push_back(
                RunRequest::single(name, modeConfig(mode, 1 + shift)));
    return reqs;
}

/** Fig. 9: 20 mixed-accelerator systems; the mixes stay Fig. 9's, only
 *  their seeds move. */
Batch
fig9Batch(std::uint64_t shift)
{
    const auto &names = workloads::allKernelNames();
    Batch reqs;
    for (unsigned sys_id = 0; sys_id < 20; ++sys_id) {
        Rng rng(1000 + sys_id);
        std::vector<std::string> mix;
        for (unsigned i = 0; i < 8; ++i)
            mix.push_back(names[rng.nextBounded(names.size())]);
        const std::uint64_t s = 42 + sys_id + shift;
        reqs.push_back(RunRequest::mixed(
            mix, modeConfig(SystemMode::ccpuAccel, s)));
        reqs.push_back(RunRequest::mixed(
            mix, modeConfig(SystemMode::ccpuCaccel, s)));
    }
    return reqs;
}

/** Fig. 11: gemm_ncubed across 1-8 tasks. */
Batch
fig11Batch(std::uint64_t shift)
{
    Batch reqs;
    for (const unsigned tasks : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u})
        for (const SystemMode mode :
             {SystemMode::cpu, SystemMode::ccpuAccel,
              SystemMode::ccpuCaccel})
            reqs.push_back(RunRequest::single(
                "gemm_ncubed", modeConfig(mode, 1 + shift), tasks));
    return reqs;
}

/** sweep_grid's full grid: Figs. 7/8/10, 9 and 11 (159 requests). */
Batch
paperGrid(std::uint64_t shift)
{
    Batch reqs = fig10Batch(shift);
    const Batch fig9 = fig9Batch(shift);
    const Batch fig11 = fig11Batch(shift);
    reqs.insert(reqs.end(), fig9.begin(), fig9.end());
    reqs.insert(reqs.end(), fig11.begin(), fig11.end());
    return reqs;
}

/** A checked point whose capability cache (8 lines) is smaller than
 *  its working set (backprop: 7 buffers x 8 tasks); the grid has none,
 *  so the traced run measures the cache's hit ratio on this one. */
RunRequest
cachedCheckerPoint(std::uint64_t seed)
{
    return RunRequest::single("backprop",
                              system::SocConfigBuilder()
                                  .mode(SystemMode::ccpuCaccel)
                                  .capCache(8)
                                  .seed(1 + seed)
                                  .build(),
                              8);
}

// ---------------------------------------------------------------------
// Result records and checks.
// ---------------------------------------------------------------------

/** One answered request, as the benchmark saw it. */
struct Item
{
    std::uint64_t hash = 0;
    /** Answered, functionally correct, no capability exception. */
    bool ok = false;
    std::string error;
    /** A fresh simulation (not a cache hit or a deduplicated copy). */
    bool executed = false;
    SystemMode mode = SystemMode::cpu;
    Cycles cycles = 0;
    std::uint64_t beats = 0;
    std::uint64_t peakEntries = 0;
    /** Simulation host time; 0 unless executed. */
    double simMillis = 0;
    /** Client side: submit to result streamed back. */
    double latencyMillis = 0;
};

Item
itemFrom(std::uint64_t hash, const system::RunResult *result,
         bool failed, const std::string &error, bool executed,
         double sim_millis)
{
    Item it;
    it.hash = hash;
    it.executed = executed;
    it.simMillis = executed ? sim_millis : 0;
    if (failed || !result) {
        it.error = error.empty() ? "request failed" : error;
        return it;
    }
    it.mode = result->mode;
    it.cycles = result->totalCycles;
    it.beats = result->dmaBeats;
    it.peakEntries = result->peakTableEntries;
    if (!result->functionallyCorrect)
        it.error = result->benchmark + ": functionally incorrect";
    else if (result->exceptions != 0)
        it.error = result->benchmark + ": " +
                   std::to_string(result->exceptions) +
                   " capability exceptions";
    it.ok = it.error.empty();
    return it;
}

struct ExactSums
{
    std::uint64_t cycles = 0;
    std::uint64_t beats = 0;
    std::uint64_t peakEntries = 0;

    void
    add(const Item &it)
    {
        cycles += it.cycles;
        beats += it.beats;
        peakEntries += it.peakEntries;
    }

    bool operator==(const ExactSums &) const = default;
};

/**
 * The determinism check: the simulated outcome of a request hash must
 * be identical every time it is answered — across repetitions, set-ups,
 * cache hits and traced passes.
 */
class Verifier
{
  public:
    /** Marks @p it failed when it disagrees with an earlier answer. */
    void
    check(Item &it)
    {
        if (!it.ok)
            return;
        const ExactSums mine{it.cycles, it.beats, it.peakEntries};
        const auto [pos, fresh] = seen.emplace(it.hash, mine);
        if (!fresh && !(pos->second == mine)) {
            it.ok = false;
            it.error = "simulated sums of request " +
                       std::to_string(it.hash) +
                       " differ from an earlier answer";
        }
    }

  private:
    std::map<std::uint64_t, ExactSums> seen;
};

/** One repetition of the workload's request set. */
struct Pass
{
    bool traced = false;
    double wallSeconds = 0;
    std::vector<Item> items;
};

// ---------------------------------------------------------------------
// capprof books of the traced passes.
// ---------------------------------------------------------------------

struct Books
{
    struct Cell
    {
        std::uint64_t selfNanos = 0;
        std::uint64_t calls = 0;
    };

    std::map<std::string, Cell> domains;
    /** "domain/name" -> totals; in-process profiles only. */
    std::map<std::string, Cell> sites;
    std::uint64_t wallNanos = 0;
    std::uint64_t runs = 0;
    std::uint64_t beats = 0;
    std::uint64_t checkedBeats = 0;
    std::vector<double> cpuRunMillis;
    std::vector<std::string> violations;

    /** Account one executed request's simulation to the books. */
    void
    addRun(const Item &it)
    {
        ++runs;
        beats += it.beats;
        if (it.mode == SystemMode::ccpuCaccel)
            checkedBeats += it.beats;
        if (!system::modeUsesAccel(it.mode))
            cpuRunMillis.push_back(it.simMillis);
    }

    /** Fold in one run-<hash>.prof.json; records a violation when its
     *  domain self-times do not sum to its wall time. */
    void
    addProfileFile(const std::string &path)
    {
        std::string err;
        const auto doc = json::parseJsonFile(path, &err);
        if (!doc) {
            violations.push_back("unreadable profile " + path + ": " +
                                 err);
            return;
        }
        const auto num = [](const json::JsonValue *v) {
            return v && v->isNumber()
                       ? static_cast<std::uint64_t>(v->asNumber())
                       : std::uint64_t{0};
        };
        const std::uint64_t wall = num(doc->get("wallNanos"));
        std::uint64_t self_sum = 0;
        if (const json::JsonValue *ds = doc->get("domains")) {
            for (const json::JsonValue &d : ds->elements()) {
                const json::JsonValue *name = d.get("domain");
                if (!name || !name->isString())
                    continue;
                Cell &c = domains[name->asString()];
                c.selfNanos += num(d.get("selfNanos"));
                c.calls += num(d.get("calls"));
                self_sum += num(d.get("selfNanos"));
            }
        }
        if (const json::JsonValue *ss = doc->get("sites")) {
            for (const json::JsonValue &s : ss->elements()) {
                const json::JsonValue *dom = s.get("domain");
                const json::JsonValue *name = s.get("name");
                if (!dom || !name || !dom->isString() ||
                    !name->isString())
                    continue;
                Cell &c =
                    sites[dom->asString() + "/" + name->asString()];
                c.selfNanos += num(s.get("selfNanos"));
                c.calls += num(s.get("calls"));
            }
        }
        wallNanos += wall;
        if (self_sum != wall) {
            violations.push_back(
                path + ": domain self times sum to " +
                std::to_string(self_sum) + " ns, wall is " +
                std::to_string(wall) + " ns");
        }
    }

    /** Fold in the daemon's prof.* counters between two snapshots;
     *  the domain self-times must sum to the wall counter. */
    void
    addDaemonDelta(const obs::MetricsSnapshot &before,
                   const obs::MetricsSnapshot &after)
    {
        const auto delta = [&](const std::string &name) {
            return after.counterValue(name) - before.counterValue(name);
        };
        const std::uint64_t wall = delta("prof.wallNanos");
        std::uint64_t self_sum = 0;
        const std::string suffix = ".selfNanos";
        for (const auto &c : after.counters) {
            const std::string &n = c.name;
            if (n.rfind("prof.", 0) != 0 || n.size() <= suffix.size() ||
                n.compare(n.size() - suffix.size(), suffix.size(),
                          suffix) != 0)
                continue;
            const std::string dom =
                n.substr(5, n.size() - 5 - suffix.size());
            Cell &cell = domains[dom];
            cell.selfNanos += delta(n);
            cell.calls += delta("prof." + dom + ".calls");
            self_sum += delta(n);
        }
        wallNanos += wall;
        if (self_sum != wall) {
            violations.push_back(
                "daemon prof counters: domain self times sum to " +
                std::to_string(self_sum) + " ns, wall is " +
                std::to_string(wall) + " ns");
        }
    }
};

/** Daemon-side serving telemetry over the measured window. */
struct ServiceBooks
{
    double queueP50Micros = 0;
    double executeP50Micros = 0;
    double streamP50Micros = 0;
    std::uint64_t busyMicros = 0;
    unsigned workers = 0;
    double windowMicros = 0;
    std::uint64_t wireBytes = 0;
    std::uint64_t requests = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t rejected = 0;
};

/** Harness result-cache use: requests served from a cache or by
 *  deduplication, over requests answered. */
struct CacheBooks
{
    std::uint64_t hits = 0;
    std::uint64_t requests = 0;

    void
    add(const service::ServiceStats &before,
        const service::ServiceStats &after)
    {
        hits += after.cacheHits - before.cacheHits;
        requests += (after.cacheHits + after.executed) -
                    (before.cacheHits + before.executed);
    }
};

// ---------------------------------------------------------------------
// Workloads. Each one is set up (possibly several times, to time
// set-up), then runs passes; a pass is one fixed amount of work.
// ---------------------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build everything the first timed request needs, warm-up
     *  included. Called once per timed set-up; the last one is used. */
    virtual void setup() = 0;

    /** Untimed, once before the first set-up: the state the system
     *  under test already holds when its user arrives. */
    virtual void prepare() {}

    /** Stop what the previous setup() started; called before each
     *  set-up, outside its timing. */
    virtual void teardown() {}

    /** Run one pass; @p traced switches the capprof profiler on. */
    virtual Pass runPass(bool traced) = 0;

    /** Whether the client switches profiling per pass; false when the
     *  system under test profiles every request anyway. */
    virtual bool clientTraced() const { return true; }

    /** Worker threads simulating. */
    virtual unsigned jobs() const = 0;

    /** Peak resident set of the process that simulates, in KiB. */
    virtual long
    peakRssKib()
    {
        struct rusage ru;
        getrusage(RUSAGE_SELF, &ru);
        return ru.ru_maxrss;
    }

    /** Exact simulated sums over the workload's fixed request set. */
    ExactSums exact;
    Verifier verifier;
    Books books;
    CacheBooks cacheBooks;
    ServiceBooks serviceBooks;
    /** Beat-level capability-cache counts (traced runs only). */
    std::uint64_t capCacheHits = 0;
    std::uint64_t capCacheLookups = 0;

    /** Traced-run extras after the passes (default: none). */
    virtual void traceExtras() {}

    /** Measured-window bookkeeping hooks (service telemetry). */
    virtual void beginWindow() {}
    virtual void endWindow() {}
};

/**
 * paper_grid: the grid submitted to an in-process SweepService per
 * pass. A fresh service per pass keeps the result cache on within a
 * pass (sweep_grid's in-batch deduplication) and off across passes, so
 * every pass simulates.
 */
class PaperGridWorkload : public Workload
{
  public:
    explicit PaperGridWorkload(const Options &o)
        : numJobs(hostJobs()), opts(o)
    {
    }

    void
    setup() override
    {
        requests = paperGrid(pointShift(opts.seed));
        sweepOpts = harness::SweepOptions{}
                        .withJobs(numJobs)
                        .withJsonDir(opts.workDir + "/json");
        // The discarded warm-up pass also fixes the exact sums.
        const Pass warm = runPass(false);
        ExactSums sums;
        for (const Item &it : warm.items)
            sums.add(it);
        exact = sums;
    }

    Pass
    runPass(bool traced) override
    {
        harness::SweepOptions so = sweepOpts;
        if (traced)
            so.profDir = opts.workDir + "/prof";
        service::InProcessService svc(so);
        const service::ServiceStats before = svc.stats();

        Pass pass;
        pass.traced = traced;
        const auto t0 = Clock::now();
        const auto outcomes = svc.submit(requests, "paper_grid");
        // Results reach the caller when submit returns.
        const double latency = millisSince(t0);
        pass.wallSeconds = latency / 1e3;

        const std::uint64_t prof_before = books.wallNanos;
        ExactSums sums;
        for (const harness::RunOutcome &o : outcomes) {
            Item it = itemFrom(o.request.hash(), &o.result, false, "",
                               !o.cacheHit, o.wallMillis);
            it.latencyMillis = latency;
            verifier.check(it);
            sums.add(it);
            if (traced && it.executed) {
                books.addRun(it);
                books.addProfileFile(
                    harness::obsOptionsFor(so, o.request).profileFile);
            }
            pass.items.push_back(std::move(it));
        }
        if (exact.beats != 0 && !(sums == exact) && !pass.items.empty()) {
            pass.items.front().ok = false;
            pass.items.front().error =
                "pass exact sums differ from the warm-up pass";
        }
        if (traced) {
            cacheBooks.add(before, svc.stats());
            // Run profiles cover execute, cache publish and render
            // windows, all inside this submit span: together they
            // cannot exceed the workers' share of it.
            const double prof_s =
                static_cast<double>(books.wallNanos - prof_before) / 1e9;
            if (prof_s > numJobs * pass.wallSeconds)
                books.violations.push_back(
                    "run profiles hold " + std::to_string(prof_s) +
                    " s, more than " + std::to_string(numJobs) +
                    " workers x the " + std::to_string(pass.wallSeconds) +
                    " s submit span");
        }
        return pass;
    }

    unsigned jobs() const override { return numJobs; }

    void
    traceExtras() override
    {
        // Beat-level capability-cache hits, from the point's latency
        // artefact (the flight recorder classifies every checked beat
        // as a hit or a miss).
        const RunRequest req = cachedCheckerPoint(pointShift(opts.seed));
        obs::ObsOptions oo;
        oo.latencyFile = opts.workDir + "/capcache.latency.json";
        oo.runLabel = req.label();
        const system::RunResult result = req.execute(oo);
        const Item it = itemFrom(req.hash(), &result, false, "", true, 0);
        if (!it.ok)
            books.violations.push_back(it.error);
        const auto doc = json::parseJsonFile(oo.latencyFile);
        const auto num = [&](const char *path) -> std::uint64_t {
            const json::JsonValue *v = doc ? doc->at(path) : nullptr;
            return v && v->isNumber()
                       ? static_cast<std::uint64_t>(v->asNumber())
                       : 0;
        };
        capCacheHits = num("flights.cacheHits");
        capCacheLookups = capCacheHits + num("flights.cacheMisses");
        if (capCacheLookups == 0)
            books.violations.push_back("no capability-cache counts in " +
                                       oo.latencyFile);
    }

  private:
    unsigned numJobs;
    const Options &opts;
    Batch requests;
    harness::SweepOptions sweepOpts;
};

/** A capcheckd child process; stopped and reaped by the destructor. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &socket,
           const std::string &cache_dir, unsigned jobs)
    {
        const std::vector<std::string> args = {
            binary,         "--socket", socket,
            "--jobs",       std::to_string(jobs),
            "--cache-dir",  cache_dir,
            "--quiet"};
        std::vector<char *> argv;
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        // The ready line goes to our stderr: stdout stays for run.py.
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, STDERR_FILENO,
                                         STDOUT_FILENO);
        const int rc = posix_spawn(&pid, binary.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            throw std::runtime_error("cannot spawn " + binary);
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** True while the child has not exited. */
    bool
    alive()
    {
        if (pid <= 0)
            return false;
        int status = 0;
        if (waitpid(pid, &status, WNOHANG) == 0)
            return true;
        pid = -1;
        return false;
    }

    /** SIGTERM, wait, and remember the child's peak RSS (KiB). */
    long
    stop()
    {
        if (pid > 0) {
            kill(pid, SIGTERM);
            int status = 0;
            struct rusage ru;
            if (wait4(pid, &status, 0, &ru) == pid)
                maxRss = ru.ru_maxrss;
            pid = -1;
        }
        return maxRss;
    }

  private:
    pid_t pid = -1;
    long maxRss = 0;
};

/**
 * service_mix: a spawned capcheckd (2 workers, disk cache) driven by
 * two closed-loop client connections that submit the figure harnesses'
 * own batches. In a pass each client submits the Fig. 7, 8, 10 and 11
 * batches (the hot set, read from the result cache) in a seeded order,
 * and one client, alternating by pass, also submits Fig. 11's batch at
 * a seed no earlier batch used, at a seeded place among them: every
 * point of that batch simulates and writes the memory and disk caches
 * while the other client reads.
 */
class ServiceWorkload : public Workload
{
  public:
    static constexpr unsigned clients = 2;
    static constexpr unsigned daemonJobs = 2;

    explicit ServiceWorkload(const Options &o)
        : opts(o), cacheDir(o.workDir + "/cache")
    {
    }

    ~ServiceWorkload() override { teardown(); }

    /** The disk cache a long-running daemon already holds: the hot
     *  set, computed in-process into the cache directory every
     *  set-up's daemon restarts on. This also fixes the exact sums. */
    void
    prepare() override
    {
        service::InProcessService svc(harness::SweepOptions{}
                                          .withJobs(hostJobs())
                                          .withCacheDir(cacheDir));
        ExactSums sums;
        for (const Batch &batch : hotSet()) {
            for (const harness::RunOutcome &o :
                 svc.submit(batch, "service_mix")) {
                Item it = itemFrom(o.request.hash(), &o.result, false,
                                   "", !o.cacheHit, o.wallMillis);
                verifier.check(it);
                if (!it.ok)
                    throw std::runtime_error("priming failed: " +
                                             it.error);
                sums.add(it);
            }
        }
        exact = sums;
    }

    void
    teardown() override
    {
        for (auto &conn : conns)
            conn.reset();
        if (daemon) {
            rss = daemon->stop();
            daemon.reset();
        }
    }

    void
    setup() override
    {
        ++generation;
        hot = hotSet();
        for (unsigned c = 0; c < clients; ++c)
            rngs[c].emplace(opts.seed * 7919 + 17 * (c + 1));

        const std::string dir =
            opts.workDir + "/svc" + std::to_string(generation);
        std::filesystem::create_directories(dir);
        const std::string sock = dir + "/capcheckd.sock";
        daemon = std::make_unique<Daemon>(opts.capcheckd, sock, cacheDir,
                                          daemonJobs);
        const auto t0 = Clock::now();
        const auto so = harness::SweepOptions{}.withServerSocket(sock);
        for (unsigned c = 0; c < clients; ++c) {
            while (!conns[c]) {
                try {
                    conns[c] = std::make_unique<service::RemoteService>(so);
                } catch (const service::ServiceError &) {
                    if (!daemon->alive() || secondsSince(t0) > 60)
                        throw std::runtime_error(
                            "capcheckd did not answer ping");
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                }
            }
        }
        // Warm-up: the hot set once (disk reads that fill the memory
        // cache), then one discarded pass.
        for (const Batch &batch : hot) {
            for (Item &it : submit(0, batch)) {
                verifier.check(it);
                if (!it.ok)
                    throw std::runtime_error("warm-up failed: " +
                                             it.error);
            }
        }
        runPass(false);
    }

    bool clientTraced() const override { return false; }

    Pass
    runPass(bool traced) override
    {
        Pass pass;
        pass.traced = traced;
        const unsigned writer = passCount++ % clients;
        std::vector<std::vector<Item>> per_client(clients);
        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([this, c, writer, &per_client] {
                for (const Batch &batch : passBatches(c, c == writer)) {
                    for (Item &it : submit(c, batch))
                        per_client[c].push_back(std::move(it));
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        pass.wallSeconds = secondsSince(t0);
        for (auto &items : per_client) {
            for (Item &it : items) {
                verifier.check(it);
                // The daemon profiles every request, so in a traced
                // run every measured pass feeds the books.
                if (opts.trace && measuring && it.executed)
                    books.addRun(it);
                pass.items.push_back(std::move(it));
            }
        }
        return pass;
    }

    unsigned jobs() const override { return daemonJobs; }

    long peakRssKib() override { return rss; }

    void
    beginWindow() override
    {
        windowStart = Clock::now();
        before = conns[0]->stats();
        measuring = true;
    }

    void
    endWindow() override
    {
        const service::ServiceStats after = conns[0]->stats();
        cacheBooks.add(before, after);
        if (opts.trace)
            books.addDaemonDelta(before.metrics, after.metrics);
        ServiceBooks &sb = serviceBooks;
        const obs::MetricsSnapshot &m = after.metrics;
        const auto delta = [&](const char *name) {
            return m.counterValue(name) -
                   before.metrics.counterValue(name);
        };
        const auto p50 = [&](const char *name) {
            const auto *h = m.findHisto(name);
            return h ? h->p50 : 0.0;
        };
        sb.queueP50Micros = p50("span.queue");
        sb.executeP50Micros = p50("span.execute");
        sb.streamP50Micros = p50("span.stream");
        sb.busyMicros = delta("worker.busyMicros");
        sb.workers = after.jobs;
        sb.windowMicros = secondsSince(windowStart) * 1e6;
        sb.wireBytes = delta("bytes.in") + delta("bytes.out");
        sb.requests = delta("requests.received");
        sb.coalesced = delta("requests.coalesced");
        sb.rejected = delta("requests.rejected");
        teardown();
    }

  private:
    /** One batch on client @p c's connection; a ServiceError fails
     *  every request of the batch. */
    std::vector<Item>
    submit(unsigned c, const Batch &batch)
    {
        std::vector<Item> out(batch.size());
        const auto t0 = Clock::now();
        try {
            conns[c]->submit(
                batch, "service_mix",
                [&](const service::StreamItem &s) {
                    Item &it = out[s.index];
                    it = itemFrom(s.hash, s.result,
                                  s.status == service::RunStatus::failed,
                                  s.error,
                                  s.status == service::RunStatus::executed,
                                  s.wallMillis);
                    it.latencyMillis = millisSince(t0);
                });
        } catch (const std::exception &e) {
            for (Item &it : out) {
                it = Item{};
                it.error = e.what();
                it.latencyMillis = millisSince(t0);
            }
        }
        return out;
    }

    /** Fig. 7, 8, 10 and 11 at the workload seed. */
    std::vector<Batch>
    hotSet() const
    {
        const std::uint64_t shift = pointShift(opts.seed);
        return {fig7Batch(shift), fig8Batch(shift), fig10Batch(shift),
                fig11Batch(shift)};
    }

    /** Client @p c's batches for one pass: the hot batches shuffled,
     *  plus, when @p writes, the held-out batch at a random place. */
    std::vector<Batch>
    passBatches(unsigned c, bool writes)
    {
        Rng &rng = *rngs[c];
        std::vector<Batch> batches = hot;
        for (std::size_t i = batches.size(); i > 1; --i)
            std::swap(batches[i - 1], batches[rng.nextBounded(i)]);
        if (!writes)
            return batches;
        // Unique per (client, batch) over the whole run, set-ups
        // included, and never the hot set's shift: never cached.
        const std::uint64_t shift =
            pointShift(opts.seed) + 1 + c + clients * freshCount[c]++;
        const std::size_t at = rng.nextBounded(batches.size() + 1);
        batches.insert(batches.begin() + at, fig11Batch(shift));
        return batches;
    }

    const Options &opts;
    const std::string cacheDir;
    unsigned generation = 0;
    unsigned passCount = 0;
    std::vector<Batch> hot;
    std::optional<Rng> rngs[clients];
    std::uint64_t freshCount[clients] = {};
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<service::RemoteService> conns[clients];
    service::ServiceStats before;
    Clock::time_point windowStart;
    bool measuring = false;
    long rss = 0;
};

// ---------------------------------------------------------------------
// Layer micro-measurements through public constructors.
// ---------------------------------------------------------------------

/** Host milliseconds of TaggedMemory(memBytes), @p reps samples. */
std::vector<double>
timeTaggedMemory(unsigned reps)
{
    const std::uint64_t bytes = system::SocConfig{}.memBytes;
    std::vector<double> ms;
    std::uint64_t sink = 0;
    for (unsigned i = 0; i < reps; ++i) {
        std::optional<TaggedMemory> mem;
        const auto t0 = Clock::now();
        mem.emplace(bytes);
        ms.push_back(millisSince(t0));
        sink += mem->size();
    }
    if (sink != bytes * reps)
        throw std::runtime_error("TaggedMemory size mismatch");
    return ms;
}

/** Host milliseconds of Topology::builtin + Elaborator::elaborate,
 *  averaged over the three accelerator modes, @p reps samples. */
std::vector<double>
timeElaboration(unsigned reps)
{
    std::vector<double> ms;
    const SystemMode modes[] = {SystemMode::cpuAccel,
                                SystemMode::ccpuAccel,
                                SystemMode::ccpuCaccel};
    for (unsigned i = 0; i < reps; ++i) {
        double total = 0;
        for (const SystemMode mode : modes) {
            const system::SocConfig cfg = modeConfig(mode, 1);
            EventQueue eq;
            stats::StatGroup root("soc");
            const auto t0 = Clock::now();
            const system::Topology topo =
                system::Topology::builtin(mode);
            const system::Elaborator elab(eq, &root, cfg);
            const system::Platform platform =
                elab.elaborate(topo, cfg.numInstances);
            total += millisSince(t0);
        }
        ms.push_back(total / 3);
    }
    return ms;
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

void
writeNumbers(json::JsonWriter &w, const std::string &key,
             const std::vector<double> &v)
{
    w.key(key).beginArray();
    for (const double x : v)
        w.value(x);
    w.endArray();
}

int
run(const Options &opts)
{
    std::filesystem::create_directories(opts.workDir);

    std::unique_ptr<Workload> wl;
    if (opts.workload == "paper_grid") {
        wl = std::make_unique<PaperGridWorkload>(opts);
    } else if (opts.workload == "service_mix") {
        if (opts.capcheckd.empty())
            usageError("service_mix needs --capcheckd");
        wl = std::make_unique<ServiceWorkload>(opts);
    } else {
        usageError("unknown workload '" + opts.workload + "'");
    }

    wl->prepare();
    std::vector<double> setup_s;
    for (unsigned k = 0; k < opts.setups; ++k) {
        wl->teardown();
        const auto t0 = Clock::now();
        wl->setup();
        setup_s.push_back(secondsSince(t0));
    }

    // Measure: untraced passes; where the client switches profiling, a
    // traced run alternates untraced and traced passes so
    // obs.trace_overhead compares like with like.
    std::vector<Pass> passes;
    wl->beginWindow();
    const auto t0 = Clock::now();
    const bool alternate = opts.trace && wl->clientTraced();
    const std::size_t min_passes = alternate ? 2 : 1;
    while (passes.size() < min_passes || secondsSince(t0) < opts.seconds) {
        const bool traced = alternate && passes.size() % 2 == 1;
        passes.push_back(wl->runPass(traced));
    }
    wl->endWindow();

    std::vector<double> mem_ctor_ms;
    std::vector<double> elaborate_ms;
    if (opts.trace) {
        wl->traceExtras();
        mem_ctor_ms = timeTaggedMemory(15);
        elaborate_ms = timeElaboration(15);
    }

    std::ofstream os(opts.out);
    json::JsonWriter w(os);
    w.beginObject();
    w.key("workload").value(opts.workload);
    w.key("seed").value(opts.seed);
    w.key("jobs").value(wl->jobs());
    w.key("prof_compiled_in").value(prof::compiledIn());
    writeNumbers(w, "setup_s", setup_s);
    w.key("peak_rss_kib").value(static_cast<std::int64_t>(wl->peakRssKib()));

    std::vector<std::string> errors;
    w.key("passes").beginArray();
    for (const Pass &p : passes) {
        std::uint64_t failed = 0;
        std::uint64_t executed = 0;
        std::uint64_t beats = 0;
        double sim_ms = 0;
        std::vector<double> run_ms;
        std::vector<double> req_ms;
        for (const Item &it : p.items) {
            if (!it.ok) {
                ++failed;
                if (errors.size() < 10)
                    errors.push_back(it.error);
            }
            if (it.executed) {
                ++executed;
                beats += it.beats;
                sim_ms += it.simMillis;
                run_ms.push_back(it.simMillis);
            }
            req_ms.push_back(it.latencyMillis);
        }
        w.beginObject();
        w.key("traced").value(p.traced);
        w.key("wall_s").value(p.wallSeconds);
        w.key("requests").value(std::uint64_t{p.items.size()});
        w.key("failed").value(failed);
        w.key("executed").value(executed);
        w.key("beats").value(beats);
        w.key("sim_ms").value(sim_ms);
        writeNumbers(w, "run_ms", run_ms);
        writeNumbers(w, "req_ms", req_ms);
        w.endObject();
    }
    w.endArray();
    w.key("errors").beginArray();
    for (const std::string &e : errors)
        w.value(e);
    w.endArray();

    w.key("exact").beginObject();
    w.key("total_cycles").value(wl->exact.cycles);
    w.key("dma_beats").value(wl->exact.beats);
    w.key("peak_table_entries").value(wl->exact.peakEntries);
    w.endObject();

    if (opts.trace) {
        const Books &b = wl->books;
        w.key("layers").beginObject();
        w.key("runs").value(b.runs);
        w.key("beats").value(b.beats);
        w.key("checked_beats").value(b.checkedBeats);
        w.key("prof_wall_ns").value(b.wallNanos);
        const auto cells = [&](const char *key,
                               const std::map<std::string,
                                              Books::Cell> &m) {
            w.key(key).beginObject();
            for (const auto &[name, c] : m) {
                w.key(name).beginObject();
                w.key("self_ns").value(c.selfNanos);
                w.key("calls").value(c.calls);
                w.endObject();
            }
            w.endObject();
        };
        cells("domains", b.domains);
        cells("sites", b.sites);
        w.key("violations").beginArray();
        for (const std::string &v : b.violations)
            w.value(v);
        w.endArray();
        writeNumbers(w, "cpu_run_ms", b.cpuRunMillis);
        writeNumbers(w, "tagged_memory_ctor_ms", mem_ctor_ms);
        writeNumbers(w, "elaborate_ms", elaborate_ms);
        w.key("harness_cache").beginObject();
        w.key("hits").value(wl->cacheBooks.hits);
        w.key("requests").value(wl->cacheBooks.requests);
        w.endObject();
        w.key("capcache").beginObject();
        w.key("hits").value(wl->capCacheHits);
        w.key("lookups").value(wl->capCacheLookups);
        w.endObject();
        const ServiceBooks &sb = wl->serviceBooks;
        w.key("service").beginObject();
        w.key("queue_p50_us").value(sb.queueP50Micros);
        w.key("execute_p50_us").value(sb.executeP50Micros);
        w.key("stream_p50_us").value(sb.streamP50Micros);
        w.key("busy_us").value(sb.busyMicros);
        w.key("workers").value(sb.workers);
        w.key("window_us").value(sb.windowMicros);
        w.key("wire_bytes").value(sb.wireBytes);
        w.key("requests").value(sb.requests);
        w.key("coalesced").value(sb.coalesced);
        w.key("rejected").value(sb.rejected);
        w.endObject();
        w.endObject();
    }
    w.endObject();
    os << "\n";
    return os ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    try {
        return run(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
