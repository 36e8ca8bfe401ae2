#include "system/task_memo.hh"

#include <cstring>

#include "accel/trace_accessor.hh"
#include "base/invariant.hh"
#include "obs/prof.hh"
#include "workloads/kernel.hh"

namespace capcheck::system
{

namespace
{

/** @p work as the memo keys it: only a CHERI core reads the buffers'
 *  capabilities, so every other envelope's key drops them. */
TaskWork
keyOf(TaskWork work)
{
    if (work.kind != RunKind::cheriCpu) {
        for (BufferMapping &buf : work.buffers)
            buf.cap = cheri::Capability();
    }
    return work;
}

/** Bucket digest of a key's fixed-size fields (not the bytes). */
std::uint64_t
digestOf(const TaskWork &work, const Rng &rng)
{
    std::uint64_t h = std::hash<std::string>{}(work.benchmark);
    const auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::uint64_t>(work.kind));
    for (const std::uint64_t word : rng.state())
        mix(word);
    for (const BufferMapping &buf : work.buffers) {
        mix(buf.base);
        mix(buf.size);
    }
    return h;
}

bool
anyTagged(const TaggedMemory &mem, const std::vector<BufferMapping> &buffers)
{
    for (const BufferMapping &buf : buffers) {
        if (mem.tagged(buf.base, buf.size))
            return true;
    }
    return false;
}

/** The buffers' bytes, concatenated in buffer order. */
std::vector<std::uint8_t>
bytesOf(const TaggedMemory &mem, const std::vector<BufferMapping> &buffers)
{
    std::uint64_t total = 0;
    for (const BufferMapping &buf : buffers)
        total += buf.size;
    std::vector<std::uint8_t> bytes(total);
    std::uint8_t *out = bytes.data();
    for (const BufferMapping &buf : buffers) {
        mem.read(buf.base, out, buf.size);
        out += buf.size;
    }
    return bytes;
}

/** Bucket digest of a snapshot's bytes. */
std::uint64_t
bytesDigest(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = bytes.size();
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes.data() + i, 8);
        h = (h ^ word) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
    }
    for (; i < bytes.size(); ++i)
        h = (h ^ bytes[i]) * 0x100000001b3ull;
    return h;
}

/** True when the buffers hold exactly @p bytes (bytesOf's layout). */
bool
holdsBytes(TaggedMemory &mem, const std::vector<BufferMapping> &buffers,
           const std::vector<std::uint8_t> &bytes)
{
    const std::uint8_t *in = bytes.data();
    for (const BufferMapping &buf : buffers) {
        if (std::memcmp(mem.window(buf.base, buf.size), in, buf.size) != 0)
            return false;
        in += buf.size;
    }
    return true;
}

/** The first field in which @p fresh differs from @p stored, or
 *  nullptr when they agree. */
const char *
firstDifference(const PreparedTask &fresh, const PreparedTask &stored)
{
    const bool same_trace =
        fresh.trace && stored.trace ? *fresh.trace == *stored.trace
                                    : fresh.trace == stored.trace;
    if (!same_trace)
        return "trace ops";
    if (fresh.initCycles != stored.initCycles)
        return "init cycles";
    if (fresh.kernelCycles != stored.kernelCycles)
        return "kernel cycles";
    if (fresh.correct != stored.correct)
        return "verdict";
    return nullptr;
}

} // namespace

RunKind
runKindOf(SystemMode mode)
{
    if (modeUsesAccel(mode))
        return RunKind::trace;
    return modeUsesCheriCpu(mode) ? RunKind::cheriCpu : RunKind::cpu;
}

PreparedTask
prepareTask(const TaskWork &work, TaggedMemory &mem, Rng &rng)
{
    const auto kernel = workloads::createKernel(work.benchmark);
    PreparedTask task;

    CpuAccessor init_acc(mem, work.buffers, /*cheri=*/false, work.costs);
    {
        PROF_SCOPE("workload", "init");
        kernel->init(init_acc, rng);
    }
    task.initCycles = init_acc.cycles();

    // Taking the trace or the cycles drains the run's logged stores
    // into memory before the check reads it.
    if (work.kind == RunKind::trace) {
        accel::TraceAccessor tracer(
            mem, workloads::kernelSpec(work.benchmark), work.buffers);
        {
            PROF_SCOPE("workload", "functional");
            kernel->run(tracer);
        }
        task.trace = std::make_shared<const accel::InstanceTrace>(
            tracer.take());
    } else {
        // Timed region: the kernel itself.
        CpuAccessor core(mem, work.buffers, work.kind == RunKind::cheriCpu,
                         work.costs);
        core.chargeTaskSetup();
        {
            PROF_SCOPE("workload", "functional");
            kernel->run(core);
        }
        task.kernelCycles = core.cycles();
    }

    CpuAccessor check_acc(mem, work.buffers, /*cheri=*/false, work.costs);
    {
        PROF_SCOPE("workload", "check");
        task.correct = kernel->check(check_acc);
    }
    return task;
}

TaskMemo::TaskMemo(const std::vector<RunKind> &run_kinds)
{
    std::array<unsigned, 3> runs{};
    for (const RunKind kind : run_kinds)
        ++runs[static_cast<std::size_t>(kind)];
    for (std::size_t k = 0; k < kept.size(); ++k)
        kept[k] = runs[k] >= 2;
}

std::shared_ptr<const TaskMemo::Entry>
TaskMemo::find(const TaskWork &key, const Rng &rng, TaggedMemory &mem,
               std::uint64_t digest) const
{
    const auto [first, last] = entries.equal_range(digest);
    for (auto it = first; it != last; ++it) {
        const Entry &entry = *it->second;
        if (entry.work == key && entry.rngBefore == rng &&
            holdsBytes(mem, key.buffers, *entry.bytesBefore))
            return it->second;
    }
    return nullptr;
}

TaskMemo::Snapshot
TaskMemo::snapshot(const TaggedMemory &mem,
                   const std::vector<BufferMapping> &buffers)
{
    std::vector<std::uint8_t> bytes = bytesOf(mem, buffers);
    const std::uint64_t digest = bytesDigest(bytes);
    std::scoped_lock lock(mtx);
    const auto [first, last] = snapshots.equal_range(digest);
    for (auto it = first; it != last; ++it) {
        if (*it->second == bytes)
            return it->second;
    }
    return snapshots
        .emplace(digest, std::make_shared<const std::vector<std::uint8_t>>(
                             std::move(bytes)))
        ->second;
}

void
TaskMemo::record(std::shared_ptr<const Entry> entry, std::uint64_t digest)
{
    std::scoped_lock lock(mtx);
    // A concurrent miss may have recorded the same key first; the two
    // entries are equal, so the first one stays.
    const auto [first, last] = entries.equal_range(digest);
    for (auto it = first; it != last; ++it) {
        const Entry &other = *it->second;
        // Pooled snapshots are equal only when they are the same one.
        if (other.work == entry->work &&
            other.rngBefore == entry->rngBefore &&
            other.bytesBefore == entry->bytesBefore)
            return;
    }
    entries.emplace(digest, std::move(entry));
}

PreparedTask
TaskMemo::prepare(const TaskWork &work, TaggedMemory &mem, Rng &rng,
                  const std::string &label, unsigned task)
{
    TaskWork key;
    std::uint64_t digest = 0;
    std::shared_ptr<const Entry> hit;
    bool shared;
    {
        PROF_SCOPE("workload", "memo.lookup");
        shared = kept[static_cast<std::size_t>(work.kind)] &&
                 !anyTagged(mem, work.buffers);
        if (shared) {
            key = keyOf(work);
            digest = digestOf(key, rng);
        }
        std::scoped_lock lock(mtx);
        ++calls;
        if (shared)
            hit = find(key, rng, mem, digest);
        else
            ++unshared;
    }
    if (!shared)
        return prepareTask(work, mem, rng);

    if (!hit) {
        auto entry = std::make_shared<Entry>();
        {
            PROF_SCOPE("workload", "memo.record");
            entry->rngBefore = rng;
            entry->bytesBefore = snapshot(mem, work.buffers);
        }
        entry->task = prepareTask(work, mem, rng);
        PROF_SCOPE("workload", "memo.record");
        entry->work = std::move(key);
        entry->rngAfter = rng;
        entry->bytesAfter = snapshot(mem, work.buffers);
        PreparedTask prepared = entry->task;
        record(std::move(entry), digest);
        return prepared;
    }

    if (paranoidChecks) {
        // Cross-check the hit against a fresh preparation of the same
        // task on the same memory.
        Rng fresh_rng = rng;
        const PreparedTask fresh = prepareTask(work, mem, fresh_rng);
        const char *what = firstDifference(fresh, hit->task);
        if (!what && !(fresh_rng == hit->rngAfter))
            what = "Rng state";
        if (!what && !holdsBytes(mem, work.buffers, *hit->bytesAfter))
            what = "buffer bytes";
        if (!what && anyTagged(mem, work.buffers))
            what = "buffer tags";
        INVARIANT(!what,
                  "task memo hit differs from a fresh preparation in its "
                  "%s: %s task %u of [%s]",
                  what, work.benchmark.c_str(), task, label.c_str());
    }

    PROF_SCOPE("workload", "memo.restore");
    rng = hit->rngAfter;
    const std::uint8_t *in = hit->bytesAfter->data();
    for (const BufferMapping &buf : work.buffers) {
        mem.write(buf.base, in, buf.size);
        in += buf.size;
    }
    return hit->task;
}

std::uint64_t
TaskMemo::tasksPrepared() const
{
    std::scoped_lock lock(mtx);
    return entries.size() + unshared;
}

std::uint64_t
TaskMemo::tasksReused() const
{
    std::scoped_lock lock(mtx);
    return calls - entries.size() - unshared;
}

} // namespace capcheck::system
