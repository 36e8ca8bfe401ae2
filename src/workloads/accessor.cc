#include "workloads/accessor.hh"

#include <algorithm>

namespace capcheck::workloads
{

void
MemoryAccessor::copy(ObjectId dst_obj, std::uint64_t dst_off,
                     ObjectId src_obj, std::uint64_t src_off,
                     std::uint64_t len)
{
    // Default: element-wise via 8-byte words; envelopes override to
    // model wide-copy instructions.
    std::uint64_t done = 0;
    while (done < len) {
        const std::uint32_t chunk =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(
                8, len - done));
        std::uint8_t tmp[8];
        load(src_obj, src_off + done, tmp, chunk);
        store(dst_obj, dst_off + done, tmp, chunk);
        done += chunk;
    }
}

void
MemoryAccessor::drain()
{
    if (intOps != 0 || fpOps != 0)
        record(Event::Kind::compute, invalidObjectId, 0, 0);
    if (logged != 0)
        flushLog();
}

void
MemoryAccessor::flushLog()
{
    // Empty the log before consume() runs: should it panic, the events
    // it was given are not handed to it a second time.
    const std::size_t n = logged;
    logged = 0;
    consume(log.data(), n);
}

void
MemoryAccessor::outside(Event::Kind kind, ObjectId obj, std::uint64_t off,
                        void *dst, const void *src, std::uint32_t size)
{
    drain();
    unwindowed(kind, obj, off, dst, src, size);
}

} // namespace capcheck::workloads
