#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "base/logging.hh"
#include "mem/tagged_memory.hh"

namespace capcheck
{
namespace
{

using cheri::Capability;
using cheri::permDataRW;

TEST(TaggedMemory, DataRoundTrip)
{
    TaggedMemory mem(4096);
    mem.writeValue<std::uint32_t>(0x100, 0xdeadbeef);
    EXPECT_EQ(mem.readValue<std::uint32_t>(0x100), 0xdeadbeefu);

    const char text[] = "capability";
    mem.write(0x200, text, sizeof(text));
    char back[sizeof(text)];
    mem.read(0x200, back, sizeof(back));
    EXPECT_STREQ(back, "capability");
}

TEST(TaggedMemory, CapStoreSetsTagAndRoundTrips)
{
    TaggedMemory mem(4096);
    const Capability cap =
        Capability::root().setBounds(0x40, 0x80).andPerms(permDataRW);
    mem.writeCap(0x10 * 16, cap);

    EXPECT_TRUE(mem.tagAt(0x100));
    const Capability back = mem.readCap(0x100);
    EXPECT_TRUE(back.tag());
    EXPECT_EQ(back.base(), cap.base());
    EXPECT_EQ(back.top(), cap.top());
    EXPECT_EQ(back.perms(), cap.perms());
}

TEST(TaggedMemory, UntaggedCapStoreClearsTag)
{
    TaggedMemory mem(4096);
    mem.writeCap(0x100, Capability::root().setBounds(0, 16));
    EXPECT_TRUE(mem.tagAt(0x100));
    mem.writeCap(0x100, Capability::root().setBounds(0, 16).cleared());
    EXPECT_FALSE(mem.tagAt(0x100));
}

TEST(TaggedMemory, DataWriteClearsOverlappingTags)
{
    // This is the anti-forgery rule: any plain-data write to a granule
    // holding a capability invalidates it.
    TaggedMemory mem(4096);
    mem.writeCap(0x100, Capability::root().setBounds(0, 16));
    mem.writeCap(0x110, Capability::root().setBounds(16, 16));

    // A one-byte write into the first granule kills only that tag.
    mem.writeValue<std::uint8_t>(0x10f, 0xff);
    EXPECT_FALSE(mem.tagAt(0x100));
    EXPECT_TRUE(mem.tagAt(0x110));

    // A straddling write kills the second too.
    mem.writeCap(0x100, Capability::root().setBounds(0, 16));
    mem.writeValue<std::uint64_t>(0x10c, 0);
    EXPECT_FALSE(mem.tagAt(0x100));
    EXPECT_FALSE(mem.tagAt(0x110));
}

TEST(TaggedMemory, ReadCapOfClearedGranuleIsUntagged)
{
    TaggedMemory mem(4096);
    const Capability cap = Capability::root().setBounds(0x40, 0x40);
    mem.writeCap(0x100, cap);
    mem.writeValue<std::uint64_t>(0x100, 0x4141414141414141ull);

    const Capability forged = mem.readCap(0x100);
    EXPECT_FALSE(forged.tag()); // bytes changed, rights did not survive
}

TEST(TaggedMemory, CountAndClearTags)
{
    TaggedMemory mem(4096);
    EXPECT_EQ(mem.countTags(), 0u);
    for (int i = 0; i < 4; ++i)
        mem.writeCap(0x100 + i * 16,
                     Capability::root().setBounds(0, 16));
    EXPECT_EQ(mem.countTags(), 4u);
    mem.clearTags(0x100, 32);
    EXPECT_EQ(mem.countTags(), 2u);
}

TEST(TaggedMemory, ScrubZeroesAndClears)
{
    TaggedMemory mem(4096);
    mem.writeValue<std::uint64_t>(0x100, ~0ull);
    mem.writeCap(0x110, Capability::root().setBounds(0, 16));
    mem.scrub(0x100, 0x40);
    EXPECT_EQ(mem.readValue<std::uint64_t>(0x100), 0u);
    EXPECT_FALSE(mem.tagAt(0x110));
}

TEST(TaggedMemory, UnalignedCapAccessPanics)
{
    TaggedMemory mem(4096);
    EXPECT_THROW(mem.writeCap(0x101, Capability::root()), SimError);
    EXPECT_THROW((void)mem.readCap(0x108), SimError);
}

TEST(TaggedMemory, OutOfRangePanics)
{
    TaggedMemory mem(4096);
    EXPECT_THROW(mem.writeValue<std::uint64_t>(4092, 0), SimError);
    std::uint8_t byte;
    EXPECT_THROW(mem.read(4096, &byte, 1), SimError);
}

TEST(TaggedMemory, FreshDefaultSizeMemoryIsZero)
{
    // The SocConfig default: 64 MiB, far more than most runs touch.
    constexpr std::uint64_t bytes = 64ull << 20;
    TaggedMemory mem(bytes);
    EXPECT_EQ(mem.size(), bytes);
    EXPECT_EQ(mem.countTags(), 0u);
    for (const Addr addr : {Addr{0}, Addr{bytes / 2}, Addr{bytes - 1}})
        EXPECT_EQ(mem.readValue<std::uint8_t>(addr), 0u) << addr;
    EXPECT_EQ(mem.readValue<std::uint64_t>(bytes - 8), 0u);
    EXPECT_FALSE(mem.tagAt(bytes - 1));

    std::uint8_t byte;
    EXPECT_THROW(mem.read(bytes, &byte, 1), SimError);
    EXPECT_THROW(mem.writeValue<std::uint16_t>(bytes - 1, 0), SimError);
}

TEST(TaggedMemory, ReusedHeapMemoryStartsZeroed)
{
    // Small memories come from recycled heap chunks rather than fresh
    // pages: a fresh memory must still read zero where a freed one
    // left data behind.
    constexpr std::uint64_t bytes = 4096;
    for (int round = 0; round < 4; ++round) {
        TaggedMemory mem(bytes);
        for (Addr a = 0; a < bytes; a += 8) {
            ASSERT_EQ(mem.readValue<std::uint64_t>(a), 0u)
                << "round " << round << " addr " << a;
        }
        ASSERT_EQ(mem.countTags(), 0u);
        for (Addr a = 0; a < bytes; a += 8)
            mem.writeValue<std::uint64_t>(a, ~std::uint64_t{0});
        mem.writeCap(0x40, Capability::root().setBounds(0, 16));
    }
}

TEST(TaggedMemory, MoveKeepsContentsAndEmptiesSource)
{
    TaggedMemory src(4096);
    src.writeValue<std::uint32_t>(0x200, 0xc0ffee);
    src.writeCap(0x100, Capability::root().setBounds(0x40, 0x80));

    TaggedMemory moved(std::move(src));
    EXPECT_EQ(moved.size(), 4096u);
    EXPECT_EQ(moved.readValue<std::uint32_t>(0x200), 0xc0ffeeu);
    EXPECT_TRUE(moved.tagAt(0x100));
    EXPECT_EQ(moved.readCap(0x100).base(), 0x40u);
    EXPECT_EQ(moved.countTags(), 1u);
    // The moved-from memory is empty: accesses panic, never fault.
    EXPECT_EQ(src.size(), 0u); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(src.countTags(), 0u);
    std::uint8_t byte;
    EXPECT_THROW(src.read(0, &byte, 1), SimError);

    TaggedMemory assigned(16);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.size(), 4096u);
    EXPECT_EQ(assigned.readValue<std::uint32_t>(0x200), 0xc0ffeeu);
    EXPECT_TRUE(assigned.tagAt(0x100));
    EXPECT_EQ(moved.size(), 0u); // NOLINT(bugprone-use-after-move)
    EXPECT_THROW(moved.read(0, &byte, 1), SimError);
}

TEST(TaggedMemory, SizeMustBeGranuleAligned)
{
    EXPECT_THROW(TaggedMemory bad(100), SimError);
    EXPECT_THROW(TaggedMemory empty(0), SimError);
}

} // namespace
} // namespace capcheck
