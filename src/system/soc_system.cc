#include "system/soc_system.hh"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "accel/accelerator.hh"
#include "base/invariant.hh"
#include "accel/trace_accessor.hh"
#include "accel/trace_player.hh"
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

} // namespace

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

RunResult
SocSystem::runBenchmark(const std::string &benchmark, unsigned num_tasks)
{
    if (num_tasks == 0)
        num_tasks = cfg.numInstances;

    std::vector<TaskPlan> plan;
    for (unsigned t = 0; t < num_tasks; ++t)
        plan.push_back(TaskPlan{benchmark, 0});

    if (!modeUsesAccel(cfg.mode))
        return runCpuOnly(plan);
    return runWithAccelerators(plan, {benchmark}, cfg.numInstances);
}

RunResult
SocSystem::runMixed(const std::vector<std::string> &benchmarks)
{
    std::vector<TaskPlan> plan;
    for (unsigned i = 0; i < benchmarks.size(); ++i)
        plan.push_back(TaskPlan{benchmarks[i], i});

    if (!modeUsesAccel(cfg.mode))
        return runCpuOnly(plan);
    return runWithAccelerators(plan, benchmarks, 1);
}

RunResult
SocSystem::runCpuOnly(const std::vector<TaskPlan> &plan)
{
    const bool cheri = modeUsesCheriCpu(cfg.mode);

    auto [mem, heap, tree, app] = makeRunMemory(cfg.memBytes, 0);
    const cheri::Capability authority = tree.capOf(app);

    RunResult result;
    result.benchmark = plan.size() == 1 ? plan[0].benchmark : "mixed";
    result.mode = cfg.mode;
    result.numTasks = static_cast<unsigned>(plan.size());
    result.functionallyCorrect = true;

    Rng rng(cfg.seed);
    for (const TaskPlan &task : plan) {
        const auto kernel = workloads::createKernel(task.benchmark);
        const workloads::KernelSpec &spec = kernel->spec();

        // Allocate buffers and derive capabilities (on a CHERI CPU).
        std::vector<BufferMapping> buffers;
        for (const workloads::BufferDef &def : spec.buffers) {
            const auto base = heap.allocate(def.size);
            if (!base)
                fatal("cpu run: out of heap for %s",
                      task.benchmark.c_str());
            BufferMapping mapping;
            mapping.base = *base;
            mapping.size = def.size;
            if (cheri)
                mapping.cap = authority.setBounds(*base, def.size);
            buffers.push_back(mapping);
        }

        // Input generation (untimed region, common to all configs).
        CpuAccessor init_acc(mem, buffers, /*cheri=*/false,
                             cfg.cpuCosts);
        {
            PROF_SCOPE("workload", "init");
            kernel->init(init_acc, rng);
        }
        result.initCycles += init_acc.cycles();

        // Timed region: the kernel itself.
        CpuAccessor acc(mem, buffers, cheri, cfg.cpuCosts);
        acc.chargeTaskSetup();
        {
            PROF_SCOPE("workload", "functional");
            kernel->run(acc);
        }
        result.kernelCycles += acc.cycles();

        CpuAccessor check_acc(mem, buffers, /*cheri=*/false,
                              cfg.cpuCosts);
        {
            PROF_SCOPE("workload", "check");
            result.functionallyCorrect &= kernel->check(check_acc);
        }

        for (const BufferMapping &buf : buffers)
            heap.free(buf.base);
    }

    result.totalCycles = result.kernelCycles;

    if (obsOpts.any())
        obs::RunObserver::writeEmptyOutputs(obsOpts);
    return result;
}

RunResult
SocSystem::runWithAccelerators(const std::vector<TaskPlan> &plan,
                               const std::vector<std::string> &pools,
                               unsigned instances_per_pool)
{
    const bool cheri = modeUsesCheriCpu(cfg.mode);
    const bool with_checker = modeUsesCapChecker(cfg.mode);

    // --- Platform (Fig. 2) ---
    auto [mem, heap, tree, app] =
        makeRunMemory(cfg.memBytes, cfg.guardBytes);

    EventQueue eq;
    stats::StatGroup stat_root("soc");

    // Declared before the components so it outlives them: probe
    // points hold listener closures referencing the observer, and the
    // components drop those closures first on teardown.
    std::unique_ptr<obs::RunObserver> observer;
    if (obsOpts.any())
        observer =
            std::make_unique<obs::RunObserver>(obsOpts, eq, stat_root);

    // --- Elaborate the platform graph from the topology ---
    Platform platform = [&] {
        PROF_SCOPE("setup", "elaborate");
        const Topology topo = topology();
        if (!topo.hasPlatform()) {
            fatal("topology '%s' has no platform components but mode "
                  "%s uses accelerators",
                  topo.name.c_str(), systemModeName(cfg.mode));
        }
        return Elaborator(eq, &stat_root, cfg)
            .elaborate(topo, static_cast<unsigned>(plan.size()));
    }();

    // The checker the driver programs for a given task. Topology
    // protect nodes can also declare the iommu/iopmp schemes; the
    // driver programs whichever backend the task's downstream path
    // actually reaches (page mappings, regions, or a cap table).
    auto checker_for = [&](TaskId task) -> capchecker::CapChecker * {
        return platform.checkerFor(task);
    };
    auto iommu_for = [&](TaskId task) -> protect::Iommu * {
        return dynamic_cast<protect::Iommu *>(
            platform.protectionFor(task));
    };
    auto iopmp_for = [&](TaskId task) -> protect::Iopmp * {
        return dynamic_cast<protect::Iopmp *>(
            platform.protectionFor(task));
    };

    // With a tag-clearing checker interposed, the raw tag-preserving
    // DMA path does not exist in the modelled hardware; arm the
    // barrier so any use of it trips an invariant.
    if (platform.clearsTagsOnWrite())
        mem.setDmaTagBarrier(true);

    // Paranoid end-to-end security invariant, independent of the
    // CheckStage's internal routing: a request the active checker
    // denied must never be observed entering the memory controller.
    // Keyed by (srcPort, id) — request ids are per-master counters.
    std::unordered_set<std::uint64_t> denied_keys;
    if (paranoidChecks) {
        const auto request_key = [](const MemRequest &req) {
            return (static_cast<std::uint64_t>(req.srcPort) << 48) ^
                   req.id;
        };
        const auto watch = [&](capchecker::CapChecker &cc) {
            cc.checkResultProbe().attach(
                [&denied_keys, request_key](
                    const capchecker::CheckResultEvent &ev) {
                    if (!ev.allowed)
                        denied_keys.insert(request_key(*ev.req));
                });
        };
        for (const auto &owned : platform.checkers) {
            if (auto *bank = dynamic_cast<protect::CheckerBank *>(
                    owned.get())) {
                for (unsigned p = 0; p < bank->size(); ++p)
                    watch(bank->at(p));
            } else if (auto *cc = dynamic_cast<capchecker::CapChecker *>(
                           owned.get())) {
                watch(*cc);
            }
        }
        for (const auto &memctrl : platform.memctrls) {
            memctrl->acceptProbe().attach(
                [&denied_keys, request_key](const TimedRequest &ev) {
                    const MemRequest &req = *ev.req;
                    INVARIANT(denied_keys.count(request_key(req)) == 0,
                              "denied request (port %u, id %llu) "
                              "reached the memory controller",
                              req.srcPort,
                              static_cast<unsigned long long>(req.id));
                });
        }
    }

    if (observer) {
        for (const auto &owned : platform.checkers) {
            if (auto *bank = dynamic_cast<protect::CheckerBank *>(
                    owned.get())) {
                for (unsigned p = 0; p < bank->size(); ++p)
                    observer->attachChecker(bank->at(p),
                                            "CapChecker#" +
                                                std::to_string(p));
            } else if (auto *cc = dynamic_cast<capchecker::CapChecker *>(
                           owned.get())) {
                observer->attachChecker(*cc);
            }
        }
        for (const auto &stage : platform.checkStages)
            observer->attachCheckStage(*stage);
        for (const auto &memctrl : platform.memctrls)
            observer->attachMemory(*memctrl);
        for (const auto &xbar : platform.xbars)
            observer->attachXbar(*xbar);
    }

    std::vector<std::unique_ptr<accel::Accelerator>> accels;
    for (const std::string &name : pools) {
        accels.push_back(std::make_unique<accel::Accelerator>(
            name, workloads::kernelSpec(name), instances_per_pool));
    }

    // One trusted-driver context per task (with per-accelerator
    // checkers each context programs its own checker over MMIO).
    std::vector<std::unique_ptr<driver::Driver>> drivers;

    // --- Task setup: functional execution + trace extraction ---
    RunResult result;
    result.benchmark = pools.size() == 1 ? pools[0] : "mixed";
    result.mode = cfg.mode;
    result.numTasks = static_cast<unsigned>(plan.size());
    result.functionallyCorrect = true;

    accel::AddressingMode addressing;
    addressing.objectMetadata =
        with_checker &&
        cfg.provenance == capchecker::Provenance::fine;
    addressing.objectInAddress =
        with_checker &&
        cfg.provenance == capchecker::Provenance::coarse;

    struct LiveTask
    {
        unsigned planIndex = 0;
        std::unique_ptr<workloads::Kernel> kernel;
        driver::TaskHandle handle;
        std::unique_ptr<accel::TracePlayer> player;
        driver::Driver *driver = nullptr;
    };

    // Tasks run in waves: the driver allocates as many as resources
    // (functional units, capability-table entries) allow; when it
    // would stall (Fig. 6's "stalls until one becomes available"), the
    // current wave runs to completion and its deallocations free the
    // resources for the next wave. With the paper's 256-entry table
    // every benchmark fits in a single wave.
    Rng rng(cfg.seed);
    std::vector<unsigned> pending(plan.size());
    for (unsigned t = 0; t < plan.size(); ++t)
        pending[t] = t;

    Cycles wave_start = 0;
    while (!pending.empty()) {
        std::vector<LiveTask> wave;
        std::vector<unsigned> deferred;
        Cycles alloc_end = wave_start;

        for (const unsigned t : pending) {
            LiveTask task;
            task.planIndex = t;
            task.kernel = workloads::createKernel(plan[t].benchmark);
            accel::Accelerator &accel =
                *accels.at(plan[t].accelIndex);

            drivers.push_back(std::make_unique<driver::Driver>(
                mem, heap, tree, cheri, checker_for(t), iommu_for(t),
                iopmp_for(t), cfg.driverCosts));
            task.driver = drivers.back().get();
            if (observer)
                observer->attachDriver(*task.driver);

            auto handle = task.driver->allocateTask(accel, t, app);
            if (!handle) {
                // Out of FUs or table entries: defer to a later wave.
                deferred.push_back(t);
                continue;
            }
            task.handle = std::move(*handle);

            // Application-side input initialization on the CPU
            // (untimed region, identical across configurations).
            CpuAccessor init_acc(mem, task.handle.buffers,
                                 /*cheri=*/false, cfg.cpuCosts);
            {
                PROF_SCOPE("workload", "init");
                task.kernel->init(init_acc, rng);
            }
            result.initCycles += init_acc.cycles();

            // Functional execution under the trace recorder.
            accel::TraceAccessor tracer(mem, accel.spec(),
                                        task.handle.buffers);
            {
                PROF_SCOPE("workload", "functional");
                task.kernel->run(tracer);
            }

            task.player = std::make_unique<accel::TracePlayer>(
                eq, &stat_root,
                plan[t].benchmark + "#" + std::to_string(t),
                accel.spec(), tracer.take(), task.handle.buffers, t,
                /*port=*/t, addressing);
            const Platform::TaskAttach &attach = platform.attachOf(t);
            bindPorts(task.player->memSide(),
                      attach.xbar->accelSide(attach.slot));
            if (observer)
                observer->attachPlayer(*task.player);

            alloc_end += task.handle.allocCycles;
            result.driverAllocCycles += task.handle.allocCycles;
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

        if (with_checker) {
            result.peakTableEntries = std::max(
                result.peakTableEntries, platform.entriesUsed());
        }

        // --- Timing simulation of this wave ---
        eq.run();

        Cycles last_finish = alloc_end;
        for (LiveTask &task : wave) {
            if (!task.player->done())
                fatal("accelerator task did not finish (deadlock?)");
            last_finish =
                std::max(last_finish, task.player->finishCycle());
            result.dmaBeats += task.player->issuedBeats();
        }
        result.kernelCycles = last_finish;

        // Functional verification before buffers are released.
        for (LiveTask &task : wave) {
            CpuAccessor check_acc(mem, task.handle.buffers,
                                  /*cheri=*/false, cfg.cpuCosts);
            {
                PROF_SCOPE("workload", "check");
                result.functionallyCorrect &=
                    task.kernel->check(check_acc);
            }
        }

        // --- Teardown (Fig. 6 (2)) ---
        for (LiveTask &task : wave) {
            const bool failed = task.player->failed();
            result.exceptions += failed;
            result.driverDeallocCycles +=
                task.driver->deallocateTask(task.handle, failed);
        }

        wave_start = last_finish;
        pending = std::move(deferred);
    }

    result.totalCycles =
        result.kernelCycles + result.driverDeallocCycles;

    if (observer)
        observer->finalize(result.totalCycles);

    if (cfg.collectStats) {
        std::ostringstream os;
        stat_root.dump(os);
        result.statsText = os.str();

        std::ostringstream js;
        json::JsonWriter jw(js);
        stat_root.dumpJson(jw);
        result.statsJson = js.str();
    }
    return result;
}

} // namespace capcheck::system
