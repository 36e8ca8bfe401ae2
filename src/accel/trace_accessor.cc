#include "accel/trace_accessor.hh"

#include "base/logging.hh"

namespace capcheck::accel
{

TraceAccessor::TraceAccessor(TaggedMemory &mem,
                             const workloads::KernelSpec &spec,
                             std::vector<BufferMapping> buffers)
    : mem(mem), spec(spec), buffers(std::move(buffers))
{
    if (this->buffers.size() != spec.buffers.size())
        fatal("TraceAccessor: mapping count mismatch for %s",
              spec.name.c_str());
    std::vector<Window> windows;
    for (ObjectId obj = 0; obj < this->buffers.size(); ++obj) {
        const BufferMapping &buf = this->buffers[obj];
        const Range whole{0, buf.size};
        windows.push_back(
            {mem.window(buf.base, buf.size), whole, whole,
             spec.buffer(obj).placement ==
                 workloads::BufferPlacement::external});
    }
    setWindows(std::move(windows));
}

TraceAccessor::~TraceAccessor()
{
    // Nothing reads an untaken trace, but its logged stores still owe
    // their tag clears. Recording one of its beats can fail (an
    // oversized beat); that panic has already reported itself and a
    // destructor must not throw it on.
    try {
        drain();
    } catch (const SimError &) {
    }
}

Addr
TraceAccessor::resolve(ObjectId obj, std::uint64_t off,
                       std::uint32_t size)
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
TraceAccessor::flushDelay()
{
    if (pendingOps == 0)
        return;
    const std::uint64_t ilp = spec.timing.ilp;
    trace.delay((pendingOps + ilp - 1) / ilp);
    pendingOps = 0;
}

void
TraceAccessor::recordAccess(MemCmd cmd, ObjectId obj, std::uint64_t off,
                            std::uint32_t size)
{
    if (spec.buffer(obj).placement != workloads::BufferPlacement::external)
        return; // BRAM-resident: no DMA beat
    flushDelay();
    trace.access(cmd, obj, off, size);
}

void
TraceAccessor::unwindowed(Event::Kind, ObjectId obj, std::uint64_t off,
                          void *, const void *, std::uint32_t size)
{
    resolve(obj, off, size);
    panic("accel window refused an in-buffer access: %s obj=%u "
          "off=%llu size=%u",
          spec.name.c_str(), obj, static_cast<unsigned long long>(off),
          size);
}

void
TraceAccessor::consume(const Event *events, std::size_t n)
{
    for (const Event *e = events; e != events + n; ++e) {
        pendingOps += e->intOps + e->fpOps;
        switch (e->kind) {
          case Event::Kind::load:
            recordAccess(MemCmd::read, e->obj, e->off, e->size);
            break;
          case Event::Kind::store:
            mem.dataWritten(buffers[e->obj].base + e->off, e->size);
            recordAccess(MemCmd::write, e->obj, e->off, e->size);
            break;
          case Event::Kind::barrier:
            flushDelay();
            if (!trace.endsWithBarrier())
                trace.barrier();
            break; // consecutive barriers coalesce
          case Event::Kind::compute:
            break;
        }
    }
}

void
TraceAccessor::copy(ObjectId dst_obj, std::uint64_t dst_off,
                    ObjectId src_obj, std::uint64_t src_off,
                    std::uint64_t len)
{
    drain();

    // Functional move.
    std::vector<std::uint8_t> tmp(len);
    const Addr src = resolve(src_obj, src_off, 0);
    const Addr dst = resolve(dst_obj, dst_off, 0);
    if (src_off + len > buffers[src_obj].size ||
        dst_off + len > buffers[dst_obj].size)
        panic("accel copy out of buffer");
    mem.read(src, tmp.data(), len);
    mem.write(dst, tmp.data(), len);

    // Timing: BRAM-to-BRAM moves are a wide on-chip copy; external
    // endpoints cost one beat per 8 bytes.
    using workloads::BufferPlacement;
    const bool src_ext = spec.buffer(src_obj).placement ==
                         BufferPlacement::external;
    const bool dst_ext = spec.buffer(dst_obj).placement ==
                         BufferPlacement::external;
    for (std::uint64_t b = 0; b < len; b += 8) {
        const auto size =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(
                8, len - b));
        if (src_ext)
            recordAccess(MemCmd::read, src_obj, src_off + b, size);
        if (dst_ext)
            recordAccess(MemCmd::write, dst_obj, dst_off + b, size);
    }
    if (!src_ext && !dst_ext)
        pendingOps += len / 16 + 1; // wide local copy
}

InstanceTrace
TraceAccessor::take()
{
    drain();
    flushDelay();
    return std::move(trace);
}

} // namespace capcheck::accel
