#include "mem/tagged_memory.hh"

#include <cstring>

#include "base/invariant.hh"
#include "base/logging.hh"

namespace capcheck
{

TaggedMemory::TaggedMemory(std::uint64_t size_bytes)
    : bytes(size_bytes)
{
    if (size_bytes == 0 || size_bytes % capGranule != 0)
        fatal("TaggedMemory size must be a non-zero multiple of %llu",
              static_cast<unsigned long long>(capGranule));
    data.reset(static_cast<std::uint8_t *>(std::calloc(size_bytes, 1)));
    if (!data)
        fatal("TaggedMemory: cannot allocate %llu bytes",
              static_cast<unsigned long long>(size_bytes));
    tags.assign(size_bytes / capGranule, false);
}

void
TaggedMemory::rangeError(Addr addr, std::uint64_t len) const
{
    panic("TaggedMemory access out of range: 0x%llx+%llu",
          static_cast<unsigned long long>(addr),
          static_cast<unsigned long long>(len));
}

void
TaggedMemory::write(Addr addr, const void *src, std::uint64_t len)
{
    checkRange(addr, len);
    if (len != 0) // an empty copy's buffer may be null
        std::memcpy(data.get() + addr, src, len);
    dataWritten(addr, len);
}

void
TaggedMemory::checkUntagged(Addr addr, std::uint64_t len) const
{
    // Postcondition of the tag discipline: a data write can never
    // leave a valid capability tag over the bytes it touched.
    if (len == 0)
        return;
    const std::uint64_t first = addr / capGranule;
    const std::uint64_t last = (addr + len - 1) / capGranule;
    for (std::uint64_t g = first; g <= last; ++g)
        INVARIANT(!tags[g], "data write left granule %llu tagged",
                  static_cast<unsigned long long>(g));
}

void
TaggedMemory::writeRawDma(Addr addr, const void *src, std::uint64_t len)
{
    INVARIANT(!dmaTagBarrier,
              "tag-preserving raw DMA write (0x%llx+%llu) while a "
              "tag-clearing checker is interposed",
              static_cast<unsigned long long>(addr),
              static_cast<unsigned long long>(len));
    checkRange(addr, len);
    std::memcpy(data.get() + addr, src, len);
}

void
TaggedMemory::writeCap(Addr addr, const cheri::Capability &cap)
{
    if (addr % capGranule != 0)
        panic("capability store to unaligned address 0x%llx",
              static_cast<unsigned long long>(addr));
    checkRange(addr, capGranule);

    std::uint64_t pesbt;
    std::uint64_t cursor;
    cap.compress(pesbt, cursor);
    std::memcpy(data.get() + addr, &cursor, 8);
    std::memcpy(data.get() + addr + 8, &pesbt, 8);
    tags[addr / capGranule] = cap.tag();
}

cheri::Capability
TaggedMemory::readCap(Addr addr) const
{
    if (addr % capGranule != 0)
        panic("capability load from unaligned address 0x%llx",
              static_cast<unsigned long long>(addr));
    checkRange(addr, capGranule);

    std::uint64_t cursor;
    std::uint64_t pesbt;
    std::memcpy(&cursor, data.get() + addr, 8);
    std::memcpy(&pesbt, data.get() + addr + 8, 8);
    return cheri::Capability::fromCompressed(tags[addr / capGranule],
                                             pesbt, cursor);
}

bool
TaggedMemory::tagAt(Addr addr) const
{
    checkRange(addr, 1);
    return tags[addr / capGranule];
}

bool
TaggedMemory::tagged(Addr addr, std::uint64_t len) const
{
    if (len == 0)
        return false;
    checkRange(addr, len);
    const std::uint64_t last = (addr + len - 1) / capGranule;
    for (std::uint64_t g = addr / capGranule; g <= last; ++g) {
        if (tags[g])
            return true;
    }
    return false;
}

std::uint64_t
TaggedMemory::countTags() const
{
    std::uint64_t count = 0;
    for (const bool tag : tags)
        count += tag;
    return count;
}

void
TaggedMemory::scrub(Addr addr, std::uint64_t len)
{
    checkRange(addr, len);
    std::memset(data.get() + addr, 0, len);
    clearTags(addr, len);
}

} // namespace capcheck
