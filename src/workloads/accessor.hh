/**
 * @file
 * The MemoryAccessor interface: every MachSuite kernel is written once
 * against this interface and executed under different "envelopes" —
 * the CPU cost model, the accelerator trace recorder, or an untimed
 * host accessor. Accesses name a buffer object plus a byte offset; the
 * envelope maps that to a shared-memory address, applies protection
 * checks, performs the functional access, and accounts time.
 *
 * The access path is inline and the same for every envelope. Each
 * buffer object has a window: a host pointer to its bytes plus, for
 * loads and for stores, the byte range that kind of access may touch
 * (the envelope's protection check, worked out once). An access checks
 * its range against the window, copies the bytes, and appends an Event
 * to a fixed-size log; computeInt()/computeFp() are counter adds whose
 * totals ride on the next event. The envelope does its accounting
 * (cache model, tag clears, trace ops) in batches when the log drains
 * into consume(). An access outside its window leaves the inline path
 * for unwindowed(), where a production envelope re-runs its full check
 * and panics with the precise reason.
 */

#ifndef CAPCHECK_WORKLOADS_ACCESSOR_HH
#define CAPCHECK_WORKLOADS_ACCESSOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/types.hh"

namespace capcheck::workloads
{

class MemoryAccessor
{
  public:
    /** One logged access, barrier or compute total. */
    struct Event
    {
        enum class Kind : std::uint8_t
        {
            load,
            store,
            barrier,
            compute, ///< carries compute totals only (see drain())
        };

        Kind kind;
        ObjectId obj;
        std::uint32_t size;
        std::uint64_t off;
        /** computeInt()/computeFp() totals since the previous event. */
        std::uint64_t intOps;
        std::uint64_t fpOps;
    };

    /** Events the log holds before it drains into consume(). */
    static constexpr std::size_t logCapacity = 256;

    /** The byte offsets [lo, hi) of a buffer an access may touch. */
    struct Range
    {
        std::uint64_t lo = 1; ///< the default range is empty
        std::uint64_t hi = 0;

        bool
        covers(std::uint64_t off, std::uint64_t size) const
        {
            return off >= lo && off <= hi && hi - off >= size;
        }
    };

    /** What the inline access path knows about one buffer object. */
    struct Window
    {
        std::uint8_t *host = nullptr; ///< the buffer's byte 0
        Range load;
        Range store;
        bool logLoads = true; ///< loads append an Event (stores always do)
    };

    MemoryAccessor() = default;
    MemoryAccessor(const MemoryAccessor &) = delete;
    MemoryAccessor &operator=(const MemoryAccessor &) = delete;
    virtual ~MemoryAccessor() = default;

    /** @{ Raw byte access at @p off inside buffer @p obj. */
    void
    load(ObjectId obj, std::uint64_t off, void *dst, std::uint32_t size)
    {
        if (obj >= windows.size() ||
            !windows[obj].load.covers(off, size)) [[unlikely]] {
            outside(Event::Kind::load, obj, off, dst, nullptr, size);
            return;
        }
        const Window &w = windows[obj];
        std::memcpy(dst, w.host + off, size);
        if (w.logLoads)
            record(Event::Kind::load, obj, off, size);
    }

    void
    store(ObjectId obj, std::uint64_t off, const void *src,
          std::uint32_t size)
    {
        if (obj >= windows.size() ||
            !windows[obj].store.covers(off, size)) [[unlikely]] {
            outside(Event::Kind::store, obj, off, nullptr, src, size);
            return;
        }
        std::memcpy(windows[obj].host + off, src, size);
        record(Event::Kind::store, obj, off, size);
    }
    /** @} */

    /**
     * Bulk copy between buffers. On a CHERI CPU this runs at capability
     * width (16 B per iteration) instead of 8 B — the effect the paper
     * credits for gemm_blocked running faster on the CHERI CPU.
     * Overrides drain() the log before they account the copy.
     */
    virtual void copy(ObjectId dst_obj, std::uint64_t dst_off,
                      ObjectId src_obj, std::uint64_t src_off,
                      std::uint64_t len);

    /** Account @p n integer/logic operations of datapath work. */
    void computeInt(std::uint64_t n) { intOps += n; }

    /** Account @p n floating-point operations. */
    void computeFp(std::uint64_t n) { fpOps += n; }

    /**
     * A sequential dependence point: on an accelerator, all outstanding
     * memory responses must land before work continues (loop-carried
     * dependence). The CPU model is already sequential.
     */
    void barrier() { record(Event::Kind::barrier, invalidObjectId, 0, 0); }

    /** @{ Typed element helpers: index in units of T. */
    template <typename T>
    T
    ld(ObjectId obj, std::uint64_t index)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        load(obj, index * sizeof(T), &value, sizeof(T));
        return value;
    }

    template <typename T>
    void
    st(ObjectId obj, std::uint64_t index, T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        store(obj, index * sizeof(T), &value, sizeof(T));
    }
    /** @} */

  protected:
    /** Install one window per ObjectId (none: every access is
     *  unwindowed). */
    void setWindows(std::vector<Window> w) { windows = std::move(w); }

    /**
     * Hand every logged event, plus a compute event for any compute
     * total no access has carried yet, to consume(). Envelopes drain
     * before their counters are read, before a copy, before handing
     * out results and in their destructors.
     */
    void drain();

    /** Account @p n logged events, oldest first. */
    virtual void consume(const Event *events, std::size_t n) = 0;

    /**
     * An access outside its window, called with the log drained. The
     * production envelopes re-run their full check here, which panics
     * with the reason. @p dst is the load destination (nullptr for a
     * store), @p src the store source (nullptr for a load).
     */
    virtual void unwindowed(Event::Kind kind, ObjectId obj,
                            std::uint64_t off, void *dst,
                            const void *src, std::uint32_t size) = 0;

  private:
    void
    record(Event::Kind kind, ObjectId obj, std::uint64_t off,
           std::uint32_t size)
    {
        log[logged++] = {kind, obj, size, off, intOps, fpOps};
        intOps = 0;
        fpOps = 0;
        if (logged == logCapacity) [[unlikely]]
            flushLog();
    }

    void flushLog();
    [[gnu::cold]] void outside(Event::Kind kind, ObjectId obj,
                               std::uint64_t off, void *dst,
                               const void *src, std::uint32_t size);

    std::vector<Window> windows;
    std::uint64_t intOps = 0;
    std::uint64_t fpOps = 0;
    std::size_t logged = 0;
    std::array<Event, logCapacity> log;
};

} // namespace capcheck::workloads

#endif // CAPCHECK_WORKLOADS_ACCESSOR_HH
