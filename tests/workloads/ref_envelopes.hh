/**
 * @file
 * Reference envelopes for differential tests: the CPU cost model and
 * the accelerator trace recorder as they were before the access log,
 * checking and accounting inside every access. They install no
 * windows, so each kernel access reaches unwindowed(), which does the
 * whole job on the spot: resolve and check, read or write
 * TaggedMemory (writes clear tags at once), and charge the cache model
 * or record the beat. consume() only sees compute totals and barriers.
 *
 * The production envelopes (cpu/cpu_model.hh, accel/trace_accessor.hh)
 * batch that accounting through the access log and must produce
 * exactly the same cycles, counters, trace ops, memory bytes and tags
 * (see envelope_oracle_test.cc and the envelope fuzzer in test_fuzz).
 */

#ifndef CAPCHECK_TESTS_WORKLOADS_REF_ENVELOPES_HH
#define CAPCHECK_TESTS_WORKLOADS_REF_ENVELOPES_HH

#include <algorithm>
#include <vector>

#include "accel/trace.hh"
#include "base/logging.hh"
#include "cpu/cpu_model.hh"
#include "mem/tagged_memory.hh"
#include "workloads/accessor.hh"
#include "workloads/buffer_spec.hh"

namespace capcheck::test
{

/** Per-access CPU cost model; mirrors CpuAccessor. */
class RefCpuAccessor : public workloads::MemoryAccessor
{
  public:
    RefCpuAccessor(TaggedMemory &mem, std::vector<BufferMapping> buffers,
                   bool cheri_enabled,
                   const CpuCostParams &params = CpuCostParams{})
        : mem(mem), buffers(std::move(buffers)), cheri(cheri_enabled),
          params(params)
    {
    }

    ~RefCpuAccessor() override { drain(); }

    void
    copy(ObjectId dst_obj, std::uint64_t dst_off, ObjectId src_obj,
         std::uint64_t src_off, std::uint64_t len) override
    {
        drain();
        std::vector<std::uint8_t> tmp(len);
        const Addr src = resolve(src_obj, src_off, 0, false);
        const Addr dst = resolve(dst_obj, dst_off, 0, true);
        if (src_off + len > buffers[src_obj].size ||
            dst_off + len > buffers[dst_obj].size)
            panic("cpu copy out of buffer");
        mem.read(src, tmp.data(), len);
        mem.write(dst, tmp.data(), len);

        const std::uint64_t word = cheri ? 16 : 8;
        const std::uint64_t iters = (len + word - 1) / word;
        _cycles += iters * params.copyPerWord;
        for (std::uint64_t b = 0; b < len; b += cache.lineBytes()) {
            chargeAccess(src + b, false);
            chargeAccess(dst + b, true);
        }
        _loads += iters;
        _stores += iters;
    }

    void
    chargeTaskSetup()
    {
        _cycles += buffers.size() * (cheri ? params.cheriCapSetup : 2);
    }

    Cycles cycles() { drain(); return _cycles; }
    std::uint64_t loads() { drain(); return _loads; }
    std::uint64_t stores() { drain(); return _stores; }
    std::uint64_t cacheMisses() { drain(); return cache.misses(); }

  private:
    void
    consume(const Event *events, std::size_t n) override
    {
        for (const Event *e = events; e != events + n; ++e)
            _cycles += e->intOps * params.intOp + e->fpOps * params.fpOp;
    }

    void
    unwindowed(Event::Kind kind, ObjectId obj, std::uint64_t off,
               void *dst, const void *src, std::uint32_t size) override
    {
        const bool is_store = kind == Event::Kind::store;
        const Addr addr = resolve(obj, off, size, is_store);
        if (is_store) {
            mem.write(addr, src, size);
            ++_stores;
        } else {
            mem.read(addr, dst, size);
            ++_loads;
        }
        chargeAccess(addr, is_store);
    }

    Addr
    resolve(ObjectId obj, std::uint64_t off, std::uint32_t size,
            bool is_store)
    {
        if (obj >= buffers.size())
            panic("cpu access to unknown object %u", obj);
        const BufferMapping &buf = buffers[obj];
        if (off + size > buf.size)
            panic("cpu access out of buffer: obj=%u off=%llu size=%u",
                  obj, static_cast<unsigned long long>(off), size);
        const Addr addr = buf.base + off;
        if (cheri) {
            const cheri::CapFault fault = buf.cap.checkAccess(
                is_store ? cheri::AccessKind::store
                         : cheri::AccessKind::load,
                addr, size);
            if (fault != cheri::CapFault::none)
                panic("unexpected CPU capability fault: %s",
                      cheri::capFaultName(fault));
        }
        return addr;
    }

    void
    chargeAccess(Addr addr, bool is_store)
    {
        if (cache.access(addr)) {
            _cycles += is_store ? params.storeHit : params.loadHit;
        } else {
            _cycles += params.missPenalty;
            ++missCount;
            if (cheri && params.cheriTagMissInterval &&
                missCount % params.cheriTagMissInterval == 0)
                _cycles += 1;
        }
    }

    TaggedMemory &mem;
    std::vector<BufferMapping> buffers;
    bool cheri;
    CpuCostParams params;
    CacheModel cache;
    Cycles _cycles = 0;
    std::uint64_t _loads = 0;
    std::uint64_t _stores = 0;
    std::uint64_t missCount = 0;
};

/** Per-access trace recorder; mirrors accel::TraceAccessor. */
class RefTraceAccessor : public workloads::MemoryAccessor
{
  public:
    RefTraceAccessor(TaggedMemory &mem, const workloads::KernelSpec &spec,
                     std::vector<BufferMapping> buffers)
        : mem(mem), spec(spec), buffers(std::move(buffers))
    {
    }

    ~RefTraceAccessor() override
    {
        try {
            drain();
        } catch (const SimError &) {
        }
    }

    void
    copy(ObjectId dst_obj, std::uint64_t dst_off, ObjectId src_obj,
         std::uint64_t src_off, std::uint64_t len) override
    {
        drain();
        std::vector<std::uint8_t> tmp(len);
        const Addr src = resolve(src_obj, src_off, 0);
        const Addr dst = resolve(dst_obj, dst_off, 0);
        if (src_off + len > buffers[src_obj].size ||
            dst_off + len > buffers[dst_obj].size)
            panic("accel copy out of buffer");
        mem.read(src, tmp.data(), len);
        mem.write(dst, tmp.data(), len);

        const bool src_ext = external(src_obj);
        const bool dst_ext = external(dst_obj);
        for (std::uint64_t b = 0; b < len; b += 8) {
            const auto size = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(8, len - b));
            if (src_ext)
                recordAccess(MemCmd::read, src_obj, src_off + b, size);
            if (dst_ext)
                recordAccess(MemCmd::write, dst_obj, dst_off + b, size);
        }
        if (!src_ext && !dst_ext)
            pendingOps += len / 16 + 1;
    }

    accel::InstanceTrace
    take()
    {
        drain();
        flushDelay();
        return std::move(trace);
    }

  private:
    void
    consume(const Event *events, std::size_t n) override
    {
        for (const Event *e = events; e != events + n; ++e) {
            pendingOps += e->intOps + e->fpOps;
            if (e->kind != Event::Kind::barrier)
                continue;
            flushDelay();
            if (!trace.endsWithBarrier())
                trace.barrier();
        }
    }

    void
    unwindowed(Event::Kind kind, ObjectId obj, std::uint64_t off,
               void *dst, const void *src, std::uint32_t size) override
    {
        const Addr addr = resolve(obj, off, size);
        if (kind == Event::Kind::store) {
            mem.write(addr, src, size);
            recordAccess(MemCmd::write, obj, off, size);
        } else {
            mem.read(addr, dst, size);
            recordAccess(MemCmd::read, obj, off, size);
        }
    }

    bool
    external(ObjectId obj) const
    {
        return spec.buffer(obj).placement ==
               workloads::BufferPlacement::external;
    }

    Addr
    resolve(ObjectId obj, std::uint64_t off, std::uint32_t size)
    {
        if (obj >= buffers.size())
            panic("accel access to unknown object %u", obj);
        if (off + size > buffers[obj].size)
            panic("accel access out of buffer: %s obj=%u off=%llu size=%u",
                  spec.name.c_str(), obj,
                  static_cast<unsigned long long>(off), size);
        return buffers[obj].base + off;
    }

    void
    flushDelay()
    {
        if (pendingOps == 0)
            return;
        const std::uint64_t ilp = spec.timing.ilp;
        trace.delay((pendingOps + ilp - 1) / ilp);
        pendingOps = 0;
    }

    void
    recordAccess(MemCmd cmd, ObjectId obj, std::uint64_t off,
                 std::uint32_t size)
    {
        if (!external(obj))
            return;
        flushDelay();
        trace.access(cmd, obj, off, size);
    }

    TaggedMemory &mem;
    const workloads::KernelSpec &spec;
    std::vector<BufferMapping> buffers;
    accel::InstanceTrace trace;
    std::uint64_t pendingOps = 0;
};

} // namespace capcheck::test

#endif // CAPCHECK_TESTS_WORKLOADS_REF_ENVELOPES_HH
