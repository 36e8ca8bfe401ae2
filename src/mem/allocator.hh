/**
 * @file
 * First-fit region allocator over the shared heap. Used by the trusted
 * driver to allocate accelerator data buffers (the paper's buffers are
 * malloc()ed from shared memory). Alignment is chosen so the buffer's
 * CHERI capability is always exactly representable, and optional guard
 * space can be inserted between allocations (Section 5.2.3 discusses
 * guard regions as a Coarse-mode safeguard).
 */

#ifndef CAPCHECK_MEM_ALLOCATOR_HH
#define CAPCHECK_MEM_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <optional>

#include "base/types.hh"

namespace capcheck
{

class RegionAllocator
{
  public:
    /**
     * Manage [base, base + size).
     * @param guard_bytes pad inserted after every allocation.
     */
    RegionAllocator(Addr base, std::uint64_t size,
                    std::uint64_t guard_bytes = 0);

    /**
     * Allocate @p size bytes. Alignment defaults to the CHERI-exact
     * alignment for the size (never below 16 so buffers never share a
     * capability tag granule).
     * @return the address, or nullopt when no space is left.
     */
    std::optional<Addr> allocate(std::uint64_t size,
                                 std::uint64_t align = 0);

    /** Free a previous allocation by address. */
    void free(Addr addr);

    /** Size of the allocation at @p addr (0 when unknown). */
    std::uint64_t sizeOf(Addr addr) const;

    std::uint64_t bytesAllocated() const { return allocated; }
    std::size_t liveAllocations() const { return live.size(); }

  private:
    Addr base;
    std::uint64_t size;
    std::uint64_t guardBytes;
    std::uint64_t allocated = 0;

    /** Free spans, keyed by start address -> length. */
    std::map<Addr, std::uint64_t> freeSpans;
    /** Live allocations: address -> (user size, reserved span start/len). */
    struct Alloc
    {
        std::uint64_t userSize;
        Addr spanStart;
        std::uint64_t spanLen;
    };
    std::map<Addr, Alloc> live;

    void insertFree(Addr start, std::uint64_t len);
};

} // namespace capcheck

#endif // CAPCHECK_MEM_ALLOCATOR_HH
