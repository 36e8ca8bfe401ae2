/**
 * @file
 * Task preparation and its memo. Preparing a task is the workload work
 * every configuration repeats: input generation, the functional run and
 * the output check. The paper runs the same MachSuite tasks under all
 * five configurations, so a sweep prepares most tasks several times
 * over; a TaskMemo lets the runs of one sweep share that work.
 *
 * A memo entry is keyed by everything a prepared task can depend on
 * (its TaskWork, the Rng state and the buffers' bytes before init) and
 * compared exactly: a hit replays the recorded
 * outcome (trace, cycles, verdict), advances the caller's Rng to the
 * state init left it in and writes the buffers' final bytes back
 * through the tag-clearing data path. Only tasks whose buffers hold no
 * set tag before init are shared, so a hit can never set a tag.
 */

#ifndef CAPCHECK_SYSTEM_TASK_MEMO_HH
#define CAPCHECK_SYSTEM_TASK_MEMO_HH

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/trace.hh"
#include "base/random.hh"
#include "cpu/cpu_model.hh"
#include "mem/tagged_memory.hh"
#include "system/soc_config.hh"

namespace capcheck::system
{

/** The envelope a task's functional run executes under. */
enum class RunKind : std::uint8_t
{
    trace,    ///< accelerator: record the DMA trace
    cpu,      ///< time the run on a plain RISC-V core
    cheriCpu, ///< time the run on a CHERI core
};

/** The envelope every task of a run in @p mode is prepared under. */
RunKind runKindOf(SystemMode mode);

/** One task to prepare: the kernel, its envelope and its buffers. */
struct TaskWork
{
    std::string benchmark;
    RunKind kind = RunKind::trace;
    std::vector<BufferMapping> buffers;
    CpuCostParams costs;

    bool operator==(const TaskWork &) const = default;
};

/** What preparing one task leaves for the run. */
struct PreparedTask
{
    /** DMA trace (trace runs); shared by the memo and the player. */
    std::shared_ptr<const accel::InstanceTrace> trace;
    Cycles initCycles = 0;   ///< input generation (untimed)
    Cycles kernelCycles = 0; ///< the run on the core (CPU runs)
    bool correct = false;    ///< the output check's verdict
};

/**
 * Prepare @p work from scratch: input generation on a plain CPU drawing
 * from @p rng, the functional run under the envelope @p work.kind
 * names, and the output check, all against @p mem. The kernel object
 * lives only as long as this call.
 */
PreparedTask prepareTask(const TaskWork &work, TaggedMemory &mem, Rng &rng);

/**
 * Prepared tasks shared between runs. Thread-safe: workers running
 * jobs of one sweep family share one memo. A concurrent miss on the
 * same key prepares the task again rather than waiting; the first
 * entry stored wins, and every entry for a key is equal.
 */
class TaskMemo
{
  public:
    /** Keep the tasks of every envelope. */
    TaskMemo() = default;

    /**
     * Keep only the tasks of envelopes that two or more of
     * @p run_kinds (one per run that will share the memo) use: the
     * tasks of an envelope only one run uses never repeat, so
     * keeping them would only hold their bytes.
     */
    explicit TaskMemo(const std::vector<RunKind> &run_kinds);

    /**
     * prepareTask() through the memo: a hit restores the recorded
     * outcome, a miss prepares the task and records it. @p label (the
     * request) and @p task (its index in the run) name the task when
     * the PARANOID cross-check of a hit finds a mismatch.
     */
    PreparedTask prepare(const TaskWork &work, TaggedMemory &mem, Rng &rng,
                         const std::string &label, unsigned task);

    /** Distinct tasks prepared: one per key, plus every task prepared
     *  outside the memo (an envelope it does not keep, or buffers that
     *  held a tag). */
    std::uint64_t tasksPrepared() const;

    /** Preparations whose key an earlier one already had. At one
     *  worker each is a preparation skipped; concurrent misses on one
     *  key may still both compute. */
    std::uint64_t tasksReused() const;

  private:
    /** The buffers' bytes at one point, concatenated in buffer order;
     *  every entry holding equal bytes shares one snapshot. */
    using Snapshot = std::shared_ptr<const std::vector<std::uint8_t>>;

    /**
     * The exact key is the task's work (with the buffer capabilities
     * cleared unless the envelope is a CHERI core: no other envelope
     * reads them), the Rng state before init and the buffers' bytes
     * before init. The map is bucketed by a digest of everything but
     * the bytes, which are compared in place against memory.
     */
    struct Entry
    {
        TaskWork work;
        Rng rngBefore{0};
        Snapshot bytesBefore;

        PreparedTask task;
        Rng rngAfter{0};
        Snapshot bytesAfter; ///< after the check
    };

    /** The entry for @p key, @p rng and the buffers' bytes in @p mem,
     *  or nullptr. Called with the mutex held. */
    std::shared_ptr<const Entry> find(const TaskWork &key, const Rng &rng,
                                      TaggedMemory &mem,
                                      std::uint64_t digest) const;

    /** The pooled snapshot of @p mem's bytes in @p buffers. */
    Snapshot snapshot(const TaggedMemory &mem,
                      const std::vector<BufferMapping> &buffers);

    /** Store @p entry unless an equal key is already stored. */
    void record(std::shared_ptr<const Entry> entry, std::uint64_t digest);

    mutable std::mutex mtx;
    std::unordered_multimap<std::uint64_t, std::shared_ptr<const Entry>>
        entries;
    /** Every snapshot an entry holds, by a digest of its bytes. CPU
     *  tasks start from their predecessor's final bytes, and a task's
     *  final bytes are the same under every envelope. */
    std::unordered_multimap<std::uint64_t, Snapshot> snapshots;
    std::array<bool, 3> kept{true, true, true}; ///< by RunKind
    std::uint64_t calls = 0;
    std::uint64_t unshared = 0;
};

} // namespace capcheck::system

#endif // CAPCHECK_SYSTEM_TASK_MEMO_HH
