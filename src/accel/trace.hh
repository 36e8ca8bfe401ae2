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

/** One trace operation, decoded: what the player replays. */
struct TraceRecord
{
    enum class Kind : std::uint8_t
    {
        access,  ///< one DMA beat on an external buffer
        delay,   ///< datapath busy for @c cycles
        barrier, ///< wait for all outstanding responses
    };

    Kind kind = Kind::barrier;
    MemCmd cmd = MemCmd::read;      ///< access: direction
    ObjectId obj = invalidObjectId; ///< access: buffer object
    std::uint64_t off = 0;          ///< access: byte offset in @c obj
    std::uint32_t size = 0;         ///< access: beat bytes
    /**
     * delay: datapath busy time. access: the delay that follows the
     * beat, started on the tick that issues it (0 = none).
     */
    Cycles cycles = 0;

    bool operator==(const TraceRecord &) const = default;
};

/**
 * One trace operation packed into 8 bytes: kmp alone records about
 * 65 k of them per task, so the op's size sets the trace's memory, its
 * regrowth copies and the pages it faults in. An access carries the
 * delay that follows it. A value too large for its field moves the
 * whole record to the trace's side table and leaves its index in
 * @c payload ("wide"); recorded kernels never need it (offsets below
 * 64 KiB, beats of at most 8 bytes, at most 7 objects, fused delays of
 * a few cycles).
 */
class TraceOp
{
  public:
    using Kind = TraceRecord::Kind;

    Kind kind() const { return static_cast<Kind>((bits >> 4) & 3); }

  private:
    friend class InstanceTrace;

    /** Objects 0..maxInlineObj fit in the op. */
    static constexpr ObjectId maxInlineObj = 15;
    static constexpr std::uint8_t cmdBit = 1u << 6;
    static constexpr std::uint8_t wideBit = 1u << 7;

    /** access: offset; delay: cycles; wide: side-table index. */
    std::uint32_t payload = 0;
    std::uint16_t fused = 0; ///< access: delay after the beat
    std::uint8_t size = 0;   ///< access: beat bytes
    /** obj (bits 0-3), kind (4-5), cmd (6), wide (7). */
    std::uint8_t bits = 0;
};

static_assert(sizeof(TraceOp) == 8, "TraceOp must stay 8 bytes");

/**
 * An instance's trace, built only through access(), delay() and
 * barrier(), which append ops in canonical form: a delay > 0 folds
 * into the access right before it, a zero-cycle delay stays a
 * standalone op (it costs the player one tick), and any value that
 * does not fit its op field goes to the side table. Equal call
 * sequences therefore give equal traces.
 */
class InstanceTrace
{
  public:
    using Kind = TraceRecord::Kind;

    /** Largest beat an op can hold, in bytes. */
    static constexpr std::uint32_t maxSize = UINT16_MAX;

    /** Append a DMA beat; panics rather than truncate an oversized one. */
    void
    access(MemCmd cmd, ObjectId obj, std::uint64_t off, std::uint32_t size)
    {
        if (size > maxSize)
            oversizedBeat(obj, off, size);
        append(TraceRecord{Kind::access, cmd, obj, off, size, 0});
    }

    /** Append @p cycles of datapath work. */
    void
    delay(Cycles cycles)
    {
        if (cycles > 0 && !ops.empty() &&
            ops.back().kind() == Kind::access) {
            TraceRecord last = at(ops.size() - 1);
            if (last.cycles == 0) {
                dropLast();
                last.cycles = cycles;
                append(last);
                return;
            }
        }
        append(TraceRecord{Kind::delay, MemCmd::read, invalidObjectId, 0,
                           0, cycles});
    }

    /** Append a wait for every outstanding response. */
    void barrier() { append(TraceRecord{}); }

    std::size_t size() const { return ops.size(); }
    bool empty() const { return ops.empty(); }

    /** Op @p i, decoded. */
    TraceRecord
    at(std::size_t i) const
    {
        return decode(ops[i]);
    }

    /** Equal when both decode to the same records. */
    bool
    operator==(const InstanceTrace &other) const
    {
        if (size() != other.size())
            return false;
        for (std::size_t i = 0; i < size(); ++i) {
            if (at(i) != other.at(i))
                return false;
        }
        return true;
    }

    /** True when the last op is a barrier (callers coalesce them). */
    bool
    endsWithBarrier() const
    {
        return !ops.empty() && ops.back().kind() == Kind::barrier;
    }

    /** Side-table records (0 for every recorded kernel). */
    std::size_t sideEntries() const { return side.size(); }

    std::uint64_t
    accessBeats() const
    {
        std::uint64_t n = 0;
        for (const TraceOp &op : ops)
            n += op.kind() == Kind::access;
        return n;
    }

  private:
    TraceRecord
    decode(const TraceOp &op) const
    {
        if (op.bits & TraceOp::wideBit) [[unlikely]]
            return side[op.payload];
        TraceRecord rec;
        rec.kind = op.kind();
        if (rec.kind == Kind::access) {
            rec.cmd = (op.bits & TraceOp::cmdBit) ? MemCmd::write
                                                   : MemCmd::read;
            rec.obj = op.bits & TraceOp::maxInlineObj;
            rec.off = op.payload;
            rec.size = op.size;
            rec.cycles = op.fused;
        } else if (rec.kind == Kind::delay) {
            rec.cycles = op.payload;
        }
        return rec;
    }

    /** Append @p rec inline when every value fits its field. */
    void
    append(const TraceRecord &rec)
    {
        const bool access = rec.kind == Kind::access;
        const bool fits =
            access ? rec.obj <= TraceOp::maxInlineObj &&
                         rec.off <= UINT32_MAX && rec.size <= UINT8_MAX &&
                         rec.cycles <= UINT16_MAX
                   : rec.cycles <= UINT32_MAX;
        TraceOp op;
        op.bits = static_cast<std::uint8_t>(
            static_cast<unsigned>(rec.kind) << 4);
        if (!fits) {
            op.payload = static_cast<std::uint32_t>(side.size());
            op.bits |= TraceOp::wideBit;
            side.push_back(rec);
        } else if (access) {
            op.payload = static_cast<std::uint32_t>(rec.off);
            op.fused = static_cast<std::uint16_t>(rec.cycles);
            op.size = static_cast<std::uint8_t>(rec.size);
            op.bits |= static_cast<std::uint8_t>(
                rec.obj | (rec.cmd == MemCmd::write ? TraceOp::cmdBit : 0));
        } else {
            op.payload = static_cast<std::uint32_t>(rec.cycles);
        }
        ops.push_back(op);
    }

    /** Remove the last op (and its side record: always the last). */
    void
    dropLast()
    {
        if (ops.back().bits & TraceOp::wideBit)
            side.pop_back();
        ops.pop_back();
    }

    [[noreturn]] static void
    oversizedBeat(ObjectId obj, std::uint64_t off, std::uint32_t size)
    {
        panic("trace beat of %u bytes exceeds the %u-byte op limit: "
              "obj=%u off=%llu",
              size, maxSize, obj, static_cast<unsigned long long>(off));
    }

    std::vector<TraceOp> ops;
    /** Full records of the ops whose values do not fit inline. */
    std::vector<TraceRecord> side;
};

} // namespace capcheck::accel

#endif // CAPCHECK_ACCEL_TRACE_HH
