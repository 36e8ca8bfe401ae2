#include <gtest/gtest.h>

#include "accel/trace_accessor.hh"
#include "base/logging.hh"

namespace capcheck::accel
{
namespace
{

using workloads::BufferAccess;
using workloads::BufferPlacement;
using workloads::KernelSpec;

KernelSpec
makeSpec()
{
    KernelSpec spec;
    spec.name = "test";
    spec.buffers = {
        {"streamed_in", 64, BufferAccess::readOnly,
         BufferPlacement::streamed},
        {"external", 64, BufferAccess::readWrite,
         BufferPlacement::external},
        {"streamed_out", 64, BufferAccess::writeOnly,
         BufferPlacement::streamed},
    };
    spec.timing.ilp = 4;
    return spec;
}

std::vector<BufferMapping>
makeMappings()
{
    return {{0x1000, 64, {}}, {0x2000, 64, {}}, {0x3000, 64, {}}};
}

class TraceAccessorTest : public ::testing::Test
{
  protected:
    TraceAccessorTest()
        : spec(makeSpec()), mem(1 << 16),
          acc(mem, spec, makeMappings())
    {
    }

    KernelSpec spec;
    TaggedMemory mem;
    TraceAccessor acc;
};

TEST_F(TraceAccessorTest, FunctionalAccessHitsSharedMemory)
{
    acc.st<std::uint32_t>(1, 2, 0xabcd);
    EXPECT_EQ(mem.readValue<std::uint32_t>(0x2008), 0xabcdu);
    EXPECT_EQ(acc.ld<std::uint32_t>(1, 2), 0xabcdu);
}

TEST_F(TraceAccessorTest, ExternalAccessesAreTraced)
{
    acc.ld<std::uint32_t>(1, 0);
    acc.st<std::uint32_t>(1, 1, 7);
    const InstanceTrace trace = acc.take();
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.at(0).kind, TraceRecord::Kind::access);
    EXPECT_EQ(trace.at(0).cmd, MemCmd::read);
    EXPECT_EQ(trace.at(0).obj, 1u);
    EXPECT_EQ(trace.at(0).off, 0u);
    EXPECT_EQ(trace.at(1).cmd, MemCmd::write);
    EXPECT_EQ(trace.at(1).off, 4u);
}

TEST_F(TraceAccessorTest, StreamedAccessesProduceNoBeats)
{
    acc.ld<std::uint32_t>(0, 0);
    acc.st<std::uint32_t>(2, 0, 1);
    const InstanceTrace trace = acc.take();
    EXPECT_EQ(trace.accessBeats(), 0u);
}

TEST_F(TraceAccessorTest, ComputeAccumulatesAsPipelinedDelay)
{
    acc.computeInt(6);
    acc.computeFp(6); // 12 ops at ILP 4 -> 3 cycles
    acc.barrier();
    const InstanceTrace trace = acc.take();
    ASSERT_GE(trace.size(), 2u);
    EXPECT_EQ(trace.at(0).kind, TraceRecord::Kind::delay);
    EXPECT_EQ(trace.at(0).cycles, 3u);
    EXPECT_EQ(trace.at(1).kind, TraceRecord::Kind::barrier);
}

TEST_F(TraceAccessorTest, DelayFlushedBeforeExternalAccess)
{
    acc.computeInt(8);
    acc.ld<std::uint32_t>(1, 0);
    const InstanceTrace trace = acc.take();
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.at(0).kind, TraceRecord::Kind::delay);
    EXPECT_EQ(trace.at(0).cycles, 2u);
    EXPECT_EQ(trace.at(1).kind, TraceRecord::Kind::access);
}

TEST_F(TraceAccessorTest, ConsecutiveBarriersCoalesce)
{
    acc.barrier();
    acc.barrier();
    acc.barrier();
    const InstanceTrace trace = acc.take();
    EXPECT_EQ(trace.size(), 1u);
}

TEST_F(TraceAccessorTest, TrailingComputeFlushedByTake)
{
    acc.computeFp(5);
    const InstanceTrace trace = acc.take();
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace.at(0).cycles, 2u); // ceil(5/4)
}

TEST_F(TraceAccessorTest, CopyBetweenStreamedBuffersIsLocal)
{
    acc.st<std::uint64_t>(0, 0, 0x1122334455667788ull);
    acc.copy(2, 0, 0, 0, 32);
    EXPECT_EQ(mem.readValue<std::uint64_t>(0x3000),
              0x1122334455667788ull);
    EXPECT_EQ(acc.take().accessBeats(), 0u);
}

TEST_F(TraceAccessorTest, CopyWithExternalEndpointGeneratesBeats)
{
    acc.copy(1, 0, 0, 0, 32); // streamed -> external: 4 write beats
    const InstanceTrace trace = acc.take();
    EXPECT_EQ(trace.accessBeats(), 4u);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace.at(i).kind == TraceRecord::Kind::access) {
            EXPECT_EQ(trace.at(i).cmd, MemCmd::write);
        }
    }
}

TEST_F(TraceAccessorTest, OutOfBufferPanics)
{
    EXPECT_THROW(acc.ld<std::uint64_t>(1, 8), SimError);
    EXPECT_THROW(acc.st<std::uint8_t>(9, 0, 1), SimError);
}

TEST_F(TraceAccessorTest, MappingCountMismatchIsFatal)
{
    EXPECT_THROW(TraceAccessor(mem, spec, {{0x1000, 64, {}}}),
                 SimError);
}

TEST_F(TraceAccessorTest, WindowStoresClearCapabilityTagsOnceTaken)
{
    // Streamed stores produce no beat but still owe their tag clears.
    const cheri::Capability cap =
        cheri::Capability::root().setBounds(0x1000, 64);
    mem.writeCap(0x2010, cap);
    mem.writeCap(0x3020, cap);
    const std::uint64_t tags = mem.countTags();
    acc.st<std::uint64_t>(1, 2, 7); // external, granule 0x2010
    acc.st<std::uint8_t>(2, 0x2f, 1); // streamed, granule 0x3020
    const InstanceTrace trace = acc.take();
    EXPECT_EQ(trace.accessBeats(), 1u);
    EXPECT_FALSE(mem.tagAt(0x2010));
    EXPECT_FALSE(mem.tagAt(0x3020));
    EXPECT_EQ(mem.countTags(), tags - 2);
}

TEST_F(TraceAccessorTest, DestructionDrainsPendingTagClears)
{
    mem.writeCap(0x2000, cheri::Capability::root().setBounds(0x2000, 16));
    {
        TraceAccessor other(mem, spec, makeMappings());
        other.st<std::uint8_t>(1, 0, 1);
    }
    EXPECT_FALSE(mem.tagAt(0x2000));
    EXPECT_EQ(mem.countTags(), 0u);
}

TEST(TraceOpTest, PackedIntoEightBytes)
{
    EXPECT_EQ(sizeof(TraceOp), 8u);
    // An access and the delay after it share one op.
    InstanceTrace trace;
    trace.access(MemCmd::write, 3, 0x1000, 8);
    trace.delay(3);
    trace.barrier();
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.at(0), (TraceRecord{TraceRecord::Kind::access,
                                        MemCmd::write, 3, 0x1000, 8, 3}));
    EXPECT_EQ(trace.at(1).kind, TraceRecord::Kind::barrier);
    EXPECT_EQ(trace.sideEntries(), 0u);
}

TEST(TraceOpTest, ZeroCycleDelayStaysStandalone)
{
    // A zero-cycle delay costs the player a tick, so it never folds;
    // neither does a second delay after a folded one.
    InstanceTrace trace;
    trace.access(MemCmd::read, 0, 0, 8);
    trace.delay(0);
    trace.delay(2);
    trace.access(MemCmd::read, 0, 8, 8);
    trace.delay(4);
    trace.delay(5);
    ASSERT_EQ(trace.size(), 5u);
    EXPECT_EQ(trace.at(0).cycles, 0u);
    EXPECT_EQ(trace.at(1), (TraceRecord{TraceRecord::Kind::delay,
                                        MemCmd::read, invalidObjectId, 0,
                                        0, 0}));
    EXPECT_EQ(trace.at(2).kind, TraceRecord::Kind::delay);
    EXPECT_EQ(trace.at(2).cycles, 2u);
    EXPECT_EQ(trace.at(3).cycles, 4u);
    EXPECT_EQ(trace.at(4).kind, TraceRecord::Kind::delay);
    EXPECT_EQ(trace.at(4).cycles, 5u);
}

TEST(TraceOpTest, SideTableRoundTripsWideValues)
{
    using Kind = TraceRecord::Kind;
    const std::uint64_t wrapping = ~std::uint64_t{0} - 127; // 2^64 - 128
    InstanceTrace trace;
    trace.access(MemCmd::read, 0, wrapping, 8);
    trace.access(MemCmd::write, 100, 16, 8);
    trace.access(MemCmd::read, 1, 24, 256);
    trace.access(MemCmd::read, 2, 32, 8);
    trace.delay(1ull << 16);
    trace.delay(1ull << 40);
    trace.access(MemCmd::write, 0, 1ull << 32, 4);
    trace.delay(7);
    const std::vector<TraceRecord> want = {
        {Kind::access, MemCmd::read, 0, wrapping, 8, 0},
        {Kind::access, MemCmd::write, 100, 16, 8, 0},
        {Kind::access, MemCmd::read, 1, 24, 256, 0},
        {Kind::access, MemCmd::read, 2, 32, 8, 1ull << 16},
        {Kind::delay, MemCmd::read, invalidObjectId, 0, 0, 1ull << 40},
        {Kind::access, MemCmd::write, 0, 1ull << 32, 4, 7},
    };
    ASSERT_EQ(trace.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(trace.at(i), want[i]) << "op " << i;
    EXPECT_EQ(trace.sideEntries(), want.size());
    EXPECT_EQ(trace.accessBeats(), 5u);
}

TEST(TraceOpTest, OversizedBeatPanicsInsteadOfTruncating)
{
    InstanceTrace trace;
    EXPECT_THROW(trace.access(MemCmd::read, 0, 0, 0x10000), SimError);

    // The same beat recorded by the envelope: a raw 64 KiB load on an
    // external buffer fails when the log drains, not silently.
    KernelSpec big;
    big.name = "big";
    big.buffers = {{"ext", 0x10000, BufferAccess::readOnly,
                    BufferPlacement::external}};
    TaggedMemory mem(1 << 18);
    TraceAccessor acc(mem, big, {{0x1000, 0x10000, {}}});
    std::vector<std::uint8_t> dst(0x10000);
    acc.load(0, 0, dst.data(), 0x10000);
    EXPECT_THROW(acc.take(), SimError);
}

} // namespace
} // namespace capcheck::accel
