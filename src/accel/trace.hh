/**
 * @file
 * The DMA/datapath trace an accelerator instance produces when a kernel
 * runs under the trace-recording envelope. The timing player replays
 * this against the simulated memory system.
 */

#ifndef CAPCHECK_ACCEL_TRACE_HH
#define CAPCHECK_ACCEL_TRACE_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "mem/packet.hh"

namespace capcheck::accel
{

/**
 * One trace operation, packed into 16 bytes: kmp alone records about
 * 130 k of them per task, so the op's size sets the trace's memory,
 * its regrowth copies and the pages it faults in.
 */
struct TraceOp
{
    enum class Kind : std::uint8_t
    {
        access,  ///< one DMA beat on an external buffer
        delay,   ///< datapath busy for @c cycles
        barrier, ///< wait for all outstanding responses
    };

    /** Largest beat an op can hold, in bytes. */
    static constexpr std::uint32_t maxSize = UINT16_MAX;

    union
    {
        std::uint64_t off; ///< access: byte offset in @c obj
        Cycles cycles = 0; ///< delay: datapath busy time
    };
    ObjectId obj = invalidObjectId; ///< access: buffer object
    std::uint16_t size = 0;         ///< access: beat bytes
    Kind kind = Kind::delay;
    MemCmd cmd = MemCmd::read; ///< access: direction

    /** An access beat; panics rather than truncate an oversized one. */
    static TraceOp
    access(MemCmd cmd, ObjectId obj, std::uint64_t off,
           std::uint32_t size)
    {
        if (size > maxSize)
            oversizedBeat(obj, off, size);
        TraceOp op;
        op.kind = Kind::access;
        op.cmd = cmd;
        op.obj = obj;
        op.off = off;
        op.size = static_cast<std::uint16_t>(size);
        return op;
    }

    static TraceOp
    delay(Cycles cycles)
    {
        TraceOp op;
        op.kind = Kind::delay;
        op.cycles = cycles;
        return op;
    }

    static TraceOp
    barrier()
    {
        TraceOp op;
        op.kind = Kind::barrier;
        return op;
    }

  private:
    [[noreturn]] static void
    oversizedBeat(ObjectId obj, std::uint64_t off, std::uint32_t size)
    {
        panic("trace beat of %u bytes exceeds the %u-byte op limit: "
              "obj=%u off=%llu",
              size, maxSize, obj, static_cast<unsigned long long>(off));
    }
};

static_assert(sizeof(TraceOp) == 16, "TraceOp must stay 16 bytes");

struct InstanceTrace
{
    std::vector<TraceOp> ops;

    std::uint64_t
    accessBeats() const
    {
        std::uint64_t n = 0;
        for (const TraceOp &op : ops)
            n += op.kind == TraceOp::Kind::access;
        return n;
    }

    Cycles
    delayCycles() const
    {
        Cycles n = 0;
        for (const TraceOp &op : ops) {
            if (op.kind == TraceOp::Kind::delay)
                n += op.cycles;
        }
        return n;
    }
};

} // namespace capcheck::accel

#endif // CAPCHECK_ACCEL_TRACE_HH
