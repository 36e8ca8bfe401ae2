/**
 * @file
 * Full-system harness: assembles the prototype platform of Fig. 2 —
 * CHERI (or plain) CPU, shared tagged memory, AXI interconnect, the
 * configured protection interposer, and one or more accelerator
 * functional-unit pools — and runs MachSuite benchmarks on it in any
 * of the five evaluation configurations.
 *
 * One step prepares every task: input generation, the functional run
 * and the output check (prepareTask, or a TaskMemo that replays equal
 * tasks of other runs). A CPU-only run times the functional run on the
 * core; an accelerator run records its DMA trace and replays it on the
 * timed platform in waves of Fig. 6's allocate/execute/deallocate flow.
 */

#ifndef CAPCHECK_SYSTEM_SOC_SYSTEM_HH
#define CAPCHECK_SYSTEM_SOC_SYSTEM_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/options.hh"
#include "system/run_result.hh"
#include "system/task_memo.hh"
#include "system/topology.hh"

namespace capcheck::system
{

class SocSystem
{
  public:
    explicit SocSystem(const SocConfig &config);

    const SocConfig &config() const { return cfg; }

    /**
     * Select observability outputs (Chrome trace, stat samples,
     * audit log) for subsequent runs. CPU-only configurations have
     * no timed platform; they emit valid-but-empty outputs.
     */
    void setObsOptions(obs::ObsOptions opts) { obsOpts = std::move(opts); }

    /**
     * Prepare subsequent runs' tasks through @p memo (nullptr: prepare
     * every task afresh). @p label names the run in the memo's
     * cross-check failures.
     */
    void
    setTaskMemo(TaskMemo *memo, std::string label)
    {
        this->memo = memo;
        memoLabel = std::move(label);
    }

    /**
     * Run @p num_tasks concurrent copies of one benchmark (default:
     * one per accelerator instance, the paper's setup). On CPU-only
     * configurations the tasks run sequentially on the core.
     */
    RunResult runBenchmark(const std::string &benchmark,
                           unsigned num_tasks = 0);

    /**
     * Run a mixed system (Fig. 9): one accelerator pool per named
     * benchmark, one task each, all concurrent.
     */
    RunResult runMixed(const std::vector<std::string> &benchmarks);

    /**
     * The topology accelerator runs elaborate: the file named by
     * config().topologyFile, or the canonical builtin for the mode.
     * @throw TopologyError when the file is unreadable or invalid.
     */
    Topology topology() const;

  private:
    /** An accelerator run's platform and the state its waves share. */
    class AcceleratorRun;

    /**
     * Run @p num_tasks tasks round-robin over @p pools, one benchmark
     * each: on the core, or on @p instances_per_pool accelerator
     * instances per pool.
     */
    RunResult run(const std::vector<std::string> &pools, unsigned num_tasks,
                  unsigned instances_per_pool);
    RunResult runCpuOnly(const std::vector<std::string> &pools,
                         unsigned num_tasks);

    /** Prepare task @p task of a run, through the memo when set. */
    PreparedTask prepare(const TaskWork &work, TaggedMemory &mem, Rng &rng,
                         unsigned task) const;

    SocConfig cfg;
    obs::ObsOptions obsOpts;
    TaskMemo *memo = nullptr;
    std::string memoLabel;
};

} // namespace capcheck::system

#endif // CAPCHECK_SYSTEM_SOC_SYSTEM_HH
