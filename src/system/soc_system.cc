#include "system/soc_system.hh"

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>

#include "accel/accelerator.hh"
#include "accel/trace_player.hh"
#include "base/invariant.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "cheri/captree.hh"
#include "driver/driver.hh"
#include "mem/allocator.hh"
#include "mem/interconnect.hh"
#include "mem/mem_ctrl.hh"
#include "mem/tagged_memory.hh"
#include "obs/observer.hh"
#include "obs/prof.hh"
#include "protect/check_stage.hh"
#include "protect/checker_bank.hh"
#include "protect/no_protection.hh"
#include "system/elaborator.hh"
#include "system/task_memo.hh"
#include "workloads/kernel.hh"

namespace capcheck::system
{

namespace
{

/** Heap layout: leave the low megabyte to the "OS". */
constexpr Addr heapBase = 1ull << 20;

/** Derive the application CPU task under the OS root (Fig. 4). */
cheri::CapNodeId
makeAppTask(cheri::CapTree &tree, std::uint64_t mem_bytes)
{
    const cheri::Capability app_cap =
        tree.capOf(tree.rootNode())
            .setBounds(heapBase, mem_bytes - heapBase)
            .andPerms(cheri::permDataRW | cheri::permLoadCap |
                      cheri::permStoreCap | cheri::permGlobal);
    return tree.derive(tree.rootNode(), cheri::CapNodeKind::cpuTask,
                       app_cap, "app");
}

/** What every run builds first: tagged memory, the heap above the
 *  "OS" megabyte and the capability tree with the application task. */
struct RunMemory
{
    RunMemory(std::uint64_t mem_bytes, std::uint64_t guard_bytes)
        : mem(mem_bytes),
          heap(heapBase, mem_bytes - heapBase, guard_bytes),
          app(makeAppTask(tree, mem_bytes))
    {
    }

    TaggedMemory mem;
    RegionAllocator heap;
    cheri::CapTree tree;
    cheri::CapNodeId app;
};

/** Build a run's memory side under the setup/memory profiler site. */
RunMemory
makeRunMemory(std::uint64_t mem_bytes, std::uint64_t guard_bytes)
{
    PROF_SCOPE("setup", "memory");
    return RunMemory(mem_bytes, guard_bytes);
}

/** Elaborate @p soc's topology under the setup/elaborate site. */
Platform
elaboratePlatform(const SocSystem &soc, EventQueue &eq,
                  stats::StatGroup &stat_root, std::size_t num_tasks)
{
    PROF_SCOPE("setup", "elaborate");
    const Topology topo = soc.topology();
    if (!topo.hasPlatform()) {
        fatal("topology '%s' has no platform components but mode "
              "%s uses accelerators",
              topo.name.c_str(), systemModeName(soc.config().mode));
    }
    return Elaborator(eq, &stat_root, soc.config())
        .elaborate(topo, static_cast<unsigned>(num_tasks));
}

} // namespace

/** An accelerator run: the platform and the state its waves share. */
class SocSystem::AcceleratorRun
{
  public:
    /** Build the platform (Fig. 2) and attach the watchers to it. */
    AcceleratorRun(const SocSystem &soc, const std::vector<std::string> &pools,
                   unsigned num_tasks, unsigned instances_per_pool)
        : soc(soc), cfg(soc.cfg),
          memory(makeRunMemory(cfg.memBytes, cfg.guardBytes)),
          observer(soc.obsOpts.any() ? std::make_unique<obs::RunObserver>(
                                           soc.obsOpts, eq, statRoot)
                                     : nullptr),
          platform(elaboratePlatform(soc, eq, statRoot, num_tasks)),
          drivers(num_tasks), rng(cfg.seed)
    {
        // With a tag-clearing checker interposed, the raw tag-preserving
        // DMA path does not exist in the modelled hardware; arm the
        // barrier so any use of it trips an invariant.
        if (platform.clearsTagsOnWrite())
            memory.mem.setDmaTagBarrier(true);

        // PARANOID end-to-end security invariant, independent of the
        // CheckStage's internal routing: a request the active checker
        // denied must never be observed entering the memory controller.
        const auto watch = [this](capchecker::CapChecker &cc,
                                  const std::string &label) {
            if (paranoidChecks) {
                cc.checkResultProbe().attach(
                    [this](const capchecker::CheckResultEvent &ev) {
                        if (!ev.allowed)
                            denied.emplace(ev.req->srcPort, ev.req->id);
                    });
            }
            if (observer)
                observer->attachChecker(cc, label);
        };
        // The one walk over the CapCheckers: a bank's members trace as
        // "CapChecker#p".
        for (const auto &owned : platform.checkers) {
            if (auto *bank =
                    dynamic_cast<protect::CheckerBank *>(owned.get())) {
                for (unsigned p = 0; p < bank->size(); ++p)
                    watch(bank->at(p), "CapChecker#" + std::to_string(p));
            } else if (auto *cc = dynamic_cast<capchecker::CapChecker *>(
                           owned.get())) {
                watch(*cc, "CapChecker");
            }
        }
        for (const auto &stage : platform.checkStages) {
            if (observer)
                observer->attachCheckStage(*stage);
        }
        for (const auto &memctrl : platform.memctrls) {
            if (paranoidChecks) {
                memctrl->acceptProbe().attach([this](const TimedRequest &ev) {
                    const MemRequest &req = *ev.req;
                    INVARIANT(!denied.count({req.srcPort, req.id}),
                              "denied request (port %u, id %llu) reached "
                              "the memory controller",
                              req.srcPort,
                              static_cast<unsigned long long>(req.id));
                });
            }
            if (observer)
                observer->attachMemory(*memctrl);
        }
        for (const auto &xbar : platform.xbars) {
            // Task t's player masters port t, which enters the
            // crossbar tree at the task's attach crossbar.
            std::vector<bool> entry_ports(num_tasks);
            for (unsigned t = 0; t < num_tasks; ++t)
                entry_ports[t] = platform.attachOf(t).xbar == xbar.get();
            if (observer)
                observer->attachXbar(*xbar, std::move(entry_ports));
        }

        for (const std::string &name : pools) {
            accels.push_back(std::make_unique<accel::Accelerator>(
                name, workloads::kernelSpec(name), instances_per_pool));
        }
        result.benchmark = pools.size() == 1 ? pools[0] : "mixed";
        result.mode = cfg.mode;
        result.numTasks = num_tasks;
        result.functionallyCorrect = true;
    }

    /**
     * Allocate and prepare as many of @p pending as the driver can
     * place (Fig. 6 (1)), replay them on the timed platform and tear
     * them down. @return the tasks deferred to a later wave.
     */
    std::vector<unsigned>
    runWave(const std::vector<unsigned> &pending)
    {
        std::vector<LiveTask> wave;
        std::vector<unsigned> deferred;
        Cycles alloc_end = waveStart;
        for (const unsigned t : pending) {
            accel::Accelerator &accel = *accels[t % accels.size()];
            std::unique_ptr<driver::Driver> &drv = drivers[t];
            if (!drv) {
                // The driver programs whichever backend the task's
                // downstream path reaches: a cap table, page mappings
                // or regions. A deferred task keeps its driver.
                protect::ProtectionChecker *protection =
                    platform.protectionFor(t);
                drv = std::make_unique<driver::Driver>(
                    memory.mem, memory.heap, memory.tree,
                    modeUsesCheriCpu(cfg.mode),
                    Platform::checkerFor(protection, t),
                    dynamic_cast<protect::Iommu *>(protection),
                    dynamic_cast<protect::Iopmp *>(protection),
                    cfg.driverCosts);
                if (observer)
                    observer->attachDriver(*drv);
            }
            LiveTask task;
            task.driver = drv.get();

            auto handle = task.driver->allocateTask(accel, t, memory.app);
            if (!handle) {
                // Out of FUs or table entries: defer to a later wave.
                deferred.push_back(t);
                continue;
            }
            task.handle = std::move(*handle);
            alloc_end += task.handle.allocCycles;
            result.driverAllocCycles += task.handle.allocCycles;

            PreparedTask prepared = soc.prepare(
                {accel.name(), RunKind::trace, task.handle.buffers,
                 cfg.cpuCosts},
                memory.mem, rng, t);
            result.initCycles += prepared.initCycles;
            result.functionallyCorrect &= prepared.correct;

            const bool checked = modeUsesCapChecker(cfg.mode);
            using enum capchecker::Provenance;
            task.player = std::make_unique<accel::TracePlayer>(
                eq, &statRoot, accel.name() + "#" + std::to_string(t),
                accel.spec(), std::move(prepared.trace),
                task.handle.buffers, t, /*port=*/t,
                accel::AddressingMode{
                    .objectMetadata = checked && cfg.provenance == fine,
                    .objectInAddress = checked && cfg.provenance == coarse});
            const Platform::TaskAttach &attach = platform.attachOf(t);
            bindPorts(task.player->memSide(),
                      attach.xbar->accelSide(attach.slot));
            if (observer)
                observer->attachPlayer(*task.player);
            wave.push_back(std::move(task));
        }
        if (wave.empty())
            fatal("driver cannot allocate any task (table of %u "
                  "entries too small for a single task?)",
                  cfg.capTableEntries);

        // The driver programs tasks one after another over MMIO; the
        // measured region starts the wave's instances together once
        // setup completes (the bare-metal testbed's protocol).
        for (LiveTask &task : wave)
            task.player->start(alloc_end);
        if (modeUsesCapChecker(cfg.mode)) {
            result.peakTableEntries =
                std::max(result.peakTableEntries, platform.entriesUsed());
        }

        // --- Timing simulation of this wave ---
        eq.run();

        // --- Teardown (Fig. 6 (2)). The output checks ran when the
        // tasks were prepared: nothing timed writes tagged memory. ---
        Cycles last_finish = alloc_end;
        for (LiveTask &task : wave) {
            if (!task.player->done())
                fatal("accelerator task did not finish (deadlock?)");
            last_finish =
                std::max(last_finish, task.player->finishCycle());
            result.dmaBeats += task.player->issuedBeats();
            const bool failed = task.player->failed();
            result.exceptions += failed;
            result.driverDeallocCycles +=
                task.driver->deallocateTask(task.handle, failed);
        }
        result.kernelCycles = waveStart = last_finish;
        return deferred;
    }

    /** Close the books: total cycles, observer outputs, stats dumps. */
    RunResult
    finish()
    {
        result.totalCycles =
            result.kernelCycles + result.driverDeallocCycles;
        if (observer)
            observer->finalize(result.totalCycles);
        if (cfg.collectStats) {
            std::ostringstream os;
            statRoot.dump(os);
            result.statsText = os.str();

            std::ostringstream js;
            json::JsonWriter jw(js);
            statRoot.dumpJson(jw);
            result.statsJson = js.str();
        }
        return std::move(result);
    }

  private:
    /** A task between allocation and teardown. */
    struct LiveTask
    {
        driver::TaskHandle handle;
        std::unique_ptr<accel::TracePlayer> player;
        driver::Driver *driver = nullptr;
    };

    const SocSystem &soc;
    const SocConfig &cfg;
    RunMemory memory;
    EventQueue eq;
    stats::StatGroup statRoot{"soc"};
    // Declared before the components so it outlives them: probe
    // points hold listener closures referencing the observer, and the
    // components drop those closures first on teardown.
    std::unique_ptr<obs::RunObserver> observer;
    Platform platform;
    /** PARANOID: (srcPort, id) of each request a checker denied. */
    std::set<std::pair<PortId, std::uint64_t>> denied;
    std::vector<std::unique_ptr<accel::Accelerator>> accels;
    /** One trusted-driver context per task, built at its first
     *  allocation attempt. */
    std::vector<std::unique_ptr<driver::Driver>> drivers;
    Rng rng;
    RunResult result;
    Cycles waveStart = 0; ///< where the next wave's driver setup starts
};

SocSystem::SocSystem(const SocConfig &config) : cfg(config)
{
}

Topology
SocSystem::topology() const
{
    if (!cfg.topologyFile.empty())
        return Topology::loadFile(cfg.topologyFile);
    return Topology::builtin(cfg.mode);
}

PreparedTask
SocSystem::prepare(const TaskWork &work, TaggedMemory &mem, Rng &rng,
                   unsigned task) const
{
    if (memo)
        return memo->prepare(work, mem, rng, memoLabel, task);
    return prepareTask(work, mem, rng);
}

RunResult
SocSystem::runBenchmark(const std::string &benchmark, unsigned num_tasks)
{
    return run({benchmark}, num_tasks ? num_tasks : cfg.numInstances,
               cfg.numInstances);
}

RunResult
SocSystem::runMixed(const std::vector<std::string> &benchmarks)
{
    return run(benchmarks, static_cast<unsigned>(benchmarks.size()), 1);
}

RunResult
SocSystem::runCpuOnly(const std::vector<std::string> &pools,
                      unsigned num_tasks)
{
    const bool cheri = modeUsesCheriCpu(cfg.mode);

    auto [mem, heap, tree, app] = makeRunMemory(cfg.memBytes, 0);
    const cheri::Capability authority = tree.capOf(app);

    RunResult result;
    result.benchmark = pools.size() == 1 ? pools[0] : "mixed";
    result.mode = cfg.mode;
    result.numTasks = num_tasks;
    result.functionallyCorrect = true;

    // The tasks run one after another on the core.
    Rng rng(cfg.seed);
    for (unsigned t = 0; t < num_tasks; ++t) {
        const std::string &benchmark = pools[t % pools.size()];
        // Allocate buffers and derive capabilities (on a CHERI CPU).
        std::vector<BufferMapping> buffers;
        for (const workloads::BufferDef &def :
             workloads::kernelSpec(benchmark).buffers) {
            const auto base = heap.allocate(def.size);
            if (!base)
                fatal("cpu run: out of heap for %s", benchmark.c_str());
            BufferMapping mapping;
            mapping.base = *base;
            mapping.size = def.size;
            if (cheri)
                mapping.cap = authority.setBounds(*base, def.size);
            buffers.push_back(mapping);
        }

        const PreparedTask prepared = prepare(
            {benchmark, runKindOf(cfg.mode), buffers, cfg.cpuCosts},
            mem, rng, t);
        result.initCycles += prepared.initCycles;
        result.kernelCycles += prepared.kernelCycles;
        result.functionallyCorrect &= prepared.correct;

        for (const BufferMapping &buf : buffers)
            heap.free(buf.base);
    }

    result.totalCycles = result.kernelCycles;

    if (obsOpts.any())
        obs::RunObserver::writeEmptyOutputs(obsOpts);
    return result;
}

RunResult
SocSystem::run(const std::vector<std::string> &pools, unsigned num_tasks,
               unsigned instances_per_pool)
{
    if (!modeUsesAccel(cfg.mode))
        return runCpuOnly(pools, num_tasks);
    AcceleratorRun accel_run(*this, pools, num_tasks, instances_per_pool);

    // Tasks run in waves: the driver allocates as many as resources
    // (functional units, capability-table entries) allow; when it
    // would stall (Fig. 6's "stalls until one becomes available"), the
    // current wave runs to completion and its deallocations free the
    // resources for the next wave. With the paper's 256-entry table
    // every benchmark fits in a single wave. A deferred task draws its
    // inputs from the Rng when its wave allocates it.
    std::vector<unsigned> pending(num_tasks);
    std::iota(pending.begin(), pending.end(), 0u);
    while (!pending.empty())
        pending = accel_run.runWave(pending);
    return accel_run.finish();
}

} // namespace capcheck::system
