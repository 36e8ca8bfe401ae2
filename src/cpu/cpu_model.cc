#include "cpu/cpu_model.hh"

#include <algorithm>

#include "base/logging.hh"

namespace capcheck
{

namespace
{

using Range = workloads::MemoryAccessor::Range;

/**
 * The byte offsets of @p buf that @p cap authorizes for @p kind: empty
 * unless the capability is tagged, unsealed and carries the permission,
 * otherwise its bounds intersected with the buffer. An access lies in
 * the result exactly when it lies in the buffer and checkAccess passes.
 */
Range
capRange(const cheri::Capability &cap, cheri::AccessKind kind,
         const BufferMapping &buf)
{
    const std::uint32_t need = cheri::requiredPerms(kind);
    if (!cap.tag() || cap.sealed() || (cap.perms() & need) != need)
        return {};
    const u128 lo = std::max<u128>(cap.base(), buf.base);
    const u128 hi = std::min<u128>(cap.top(), u128(buf.base) + buf.size);
    if (lo > hi)
        return {};
    return {static_cast<std::uint64_t>(lo - buf.base),
            static_cast<std::uint64_t>(hi - buf.base)};
}

} // namespace

CpuAccessor::CpuAccessor(TaggedMemory &mem,
                         std::vector<BufferMapping> buffers,
                         bool cheri_enabled, const CpuCostParams &params)
    : mem(mem), buffers(std::move(buffers)), cheri(cheri_enabled),
      params(params),
      tagFetchCountdown(cheri_enabled ? params.cheriTagMissInterval : 0)
{
    std::vector<Window> windows;
    for (const BufferMapping &buf : this->buffers) {
        Window w;
        w.host = mem.window(buf.base, buf.size);
        if (cheri) {
            w.load = capRange(buf.cap, cheri::AccessKind::load, buf);
            w.store = capRange(buf.cap, cheri::AccessKind::store, buf);
        } else {
            w.load = w.store = Range{0, buf.size};
        }
        windows.push_back(w);
    }
    setWindows(std::move(windows));
}

CpuAccessor::~CpuAccessor()
{
    // Cannot throw: consume() only counts, and its tag clears cover
    // ranges mem.window() already checked.
    drain();
}

Addr
CpuAccessor::resolve(ObjectId obj, std::uint64_t off, std::uint32_t size,
                     bool is_store)
{
    if (obj >= buffers.size())
        panic("cpu access to unknown object %u", obj);
    const BufferMapping &buf = buffers[obj];
    if (off + size > buf.size)
        panic("cpu access out of buffer: obj=%u off=%llu size=%u", obj,
              static_cast<unsigned long long>(off), size);

    const Addr addr = buf.base + off;
    if (cheri) {
        // A CHERI CPU checks the pointer's capability on every
        // dereference; benign kernels never fault here.
        const cheri::CapFault fault = buf.cap.checkAccess(
            is_store ? cheri::AccessKind::store : cheri::AccessKind::load,
            addr, size);
        if (fault != cheri::CapFault::none)
            panic("unexpected CPU capability fault: %s",
                  cheri::capFaultName(fault));
    }
    return addr;
}

void
CpuAccessor::unwindowed(Event::Kind kind, ObjectId obj, std::uint64_t off,
                        void *, const void *, std::uint32_t size)
{
    resolve(obj, off, size, kind == Event::Kind::store);
    panic("cpu window refused an access its checks allow: obj=%u "
          "off=%llu size=%u",
          obj, static_cast<unsigned long long>(off), size);
}

inline void
CpuAccessor::chargeAccess(Addr addr, bool is_store)
{
    if (cache.access(addr)) {
        _cycles += is_store ? params.storeHit : params.loadHit;
    } else {
        _cycles += params.missPenalty;
        if (tagFetchCountdown != 0 && --tagFetchCountdown == 0) {
            _cycles += 1; // tag fetch alongside the line fill
            tagFetchCountdown = params.cheriTagMissInterval;
        }
    }
}

void
CpuAccessor::consume(const Event *events, std::size_t n)
{
    for (const Event *e = events; e != events + n; ++e) {
        _cycles += e->intOps * params.intOp + e->fpOps * params.fpOp;
        switch (e->kind) {
          case Event::Kind::load:
            chargeAccess(buffers[e->obj].base + e->off, false);
            ++_loads;
            break;
          case Event::Kind::store: {
            const Addr addr = buffers[e->obj].base + e->off;
            mem.dataWritten(addr, e->size);
            chargeAccess(addr, true);
            ++_stores;
            break;
          }
          case Event::Kind::barrier:
          case Event::Kind::compute:
            break;
        }
    }
}

void
CpuAccessor::copy(ObjectId dst_obj, std::uint64_t dst_off,
                  ObjectId src_obj, std::uint64_t src_off,
                  std::uint64_t len)
{
    drain();

    // Functional move.
    std::vector<std::uint8_t> tmp(len);
    const Addr src = resolve(src_obj, src_off, 0, false);
    const Addr dst = resolve(dst_obj, dst_off, 0, true);
    if (src_off + len > buffers[src_obj].size ||
        dst_off + len > buffers[dst_obj].size)
        panic("cpu copy out of buffer");
    mem.read(src, tmp.data(), len);
    mem.write(dst, tmp.data(), len);

    // Timing: word-by-word copy loop at capability width under CHERI
    // (the CLC/CSC pair moves 16 bytes; plain RV64 moves 8).
    const std::uint64_t word = cheri ? 16 : 8;
    const std::uint64_t iters = (len + word - 1) / word;
    _cycles += iters * params.copyPerWord;
    // Cache effects: touch each source/destination line once.
    for (std::uint64_t b = 0; b < len; b += cache.lineBytes()) {
        chargeAccess(src + b, false);
        chargeAccess(dst + b, true);
    }
    _loads += iters;
    _stores += iters;
}

void
CpuAccessor::chargeTaskSetup()
{
    if (cheri)
        _cycles += buffers.size() * params.cheriCapSetup;
    else
        _cycles += buffers.size() * 2; // plain pointer setup
}

} // namespace capcheck
