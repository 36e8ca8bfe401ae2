/**
 * @file
 * Byte-addressable shared main memory with CHERI capability tags: one
 * out-of-band tag bit per 16-byte granule (the "shadow section" of
 * Section 5.2.1). Tag discipline is enforced here rather than trusted to
 * callers: any data write clears the tags of every granule it touches;
 * only the dedicated capability-store path can set a tag, and only when
 * storing an aligned, valid capability.
 *
 * The data array is calloc-backed. For the default 64 MiB memory glibc
 * serves the allocation from fresh anonymous mmap pages, which the
 * kernel hands out already zeroed and only materializes on first
 * touch, so a run pays for the pages it uses rather than for an
 * up-front zero-fill of the whole address space.
 */

#ifndef CAPCHECK_MEM_TAGGED_MEMORY_HH
#define CAPCHECK_MEM_TAGGED_MEMORY_HH

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "base/invariant.hh"
#include "base/types.hh"
#include "cheri/capability.hh"

namespace capcheck
{

class TaggedMemory
{
  public:
    /** Bytes covered by one capability tag. */
    static constexpr std::uint64_t capGranule = 16;

    explicit TaggedMemory(std::uint64_t size_bytes);

    /** Moves transfer the storage; the moved-from memory is left
     *  empty (size 0), so any later access is a range panic. */
    TaggedMemory(TaggedMemory &&other) noexcept
        : data(std::move(other.data)),
          bytes(std::exchange(other.bytes, 0)),
          tags(std::move(other.tags)), dmaTagBarrier(other.dmaTagBarrier)
    {
        other.tags.clear();
    }

    TaggedMemory &
    operator=(TaggedMemory &&other) noexcept
    {
        data = std::move(other.data);
        bytes = std::exchange(other.bytes, 0);
        tags = std::move(other.tags);
        other.tags.clear();
        dmaTagBarrier = other.dmaTagBarrier;
        return *this;
    }

    std::uint64_t size() const { return bytes; }

    /** @{ Data access. Writes clear every overlapping granule tag.
     *  read() is inline: it sits on the trace-generation and CPU-model
     *  hot paths (tens of millions of calls per sweep), where the
     *  cross-TU call cost dominated the memcpy. */
    void write(Addr addr, const void *src, std::uint64_t len);

    void
    read(Addr addr, void *dst, std::uint64_t len) const
    {
        checkRange(addr, len);
        if (len != 0) // an empty copy's buffer may be null
            std::memcpy(dst, data.get() + addr, len);
    }

    /**
     * Tag-oblivious DMA write: data bytes change but existing granule
     * tags are left untouched. This models a naive accelerator
     * integration whose DMA path bypasses the tag discipline — the
     * enabling condition for the Fig. 2 capability-forging attack.
     * Only the CapChecker's interposed path uses tag-clearing writes.
     */
    void writeRawDma(Addr addr, const void *src, std::uint64_t len);

    /**
     * Host pointer to the bytes [addr, addr+len), range-checked once
     * here instead of per access. Bytes stored through it keep their
     * granule tags until the writer reports them with dataWritten().
     */
    std::uint8_t *
    window(Addr addr, std::uint64_t len)
    {
        checkRange(addr, len);
        return data.get() + addr;
    }

    /**
     * Record a data write of [addr, addr+len) made through a window():
     * clears every overlapping granule tag, as write() does. Inline:
     * every store a kernel makes is reported here.
     */
    void
    dataWritten(Addr addr, std::uint64_t len)
    {
        clearTags(addr, len);
        if (paranoidChecks)
            checkUntagged(addr, len);
    }

    template <typename T>
    void
    writeValue(Addr addr, T value)
    {
        write(addr, &value, sizeof(T));
    }

    template <typename T>
    T
    readValue(Addr addr) const
    {
        T value;
        read(addr, &value, sizeof(T));
        return value;
    }
    /** @} */

    /**
     * Store a capability at a 16-byte aligned address. The granule tag
     * is set only if @p cap is tagged; storing an untagged capability
     * writes its bytes and clears the tag.
     */
    void writeCap(Addr addr, const cheri::Capability &cap);

    /**
     * Load a capability from a 16-byte aligned address. The result is
     * tagged only if the granule tag is set.
     */
    cheri::Capability readCap(Addr addr) const;

    /** Tag of the granule containing @p addr. */
    bool tagAt(Addr addr) const;

    /** True when any granule overlapping [addr, addr+len) is tagged. */
    bool tagged(Addr addr, std::uint64_t len) const;

    /** Clear the tags of all granules overlapping [addr, addr+len). */
    void
    clearTags(Addr addr, std::uint64_t len)
    {
        if (len == 0)
            return;
        checkRange(addr, len);
        const std::uint64_t last = (addr + len - 1) / capGranule;
        for (std::uint64_t g = addr / capGranule; g <= last; ++g)
            tags[g] = false;
    }

    /** Count of set tags over the whole memory (for audits/tests). */
    std::uint64_t countTags() const;

    /** Zero a region (and clear its tags) — driver buffer scrubbing. */
    void scrub(Addr addr, std::uint64_t len);

    /**
     * Arm the DMA tag barrier: with a tag-clearing checker (the
     * CapChecker) interposed on the accelerator path, the raw
     * tag-preserving DMA path cannot exist in the modelled hardware.
     * Once armed, writeRawDma() is an invariant violation — the
     * machine-checked form of the paper's anti-forgery property that
     * no accelerator-originated write carries a valid capability tag
     * into memory.
     */
    void setDmaTagBarrier(bool armed) { dmaTagBarrier = armed; }

  private:
    void
    checkRange(Addr addr, std::uint64_t len) const
    {
        if (addr + len > bytes || addr + len < addr)
            rangeError(addr, len);
    }
    [[noreturn]] void rangeError(Addr addr, std::uint64_t len) const;

    /** Paranoid postcondition of a data write: no tag left set. */
    void checkUntagged(Addr addr, std::uint64_t len) const;

    struct FreeDeleter
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    std::unique_ptr<std::uint8_t[], FreeDeleter> data;
    std::uint64_t bytes;
    std::vector<bool> tags;
    bool dmaTagBarrier = false;
};

} // namespace capcheck

#endif // CAPCHECK_MEM_TAGGED_MEMORY_HH
