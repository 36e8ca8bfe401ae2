#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "base/logging.hh"
#include "cpu/cpu_model.hh"

namespace capcheck
{
namespace
{

class CpuModelTest : public ::testing::Test
{
  protected:
    CpuModelTest() : mem(1 << 16)
    {
        const cheri::Capability root = cheri::Capability::root();
        buffers.push_back(
            {0x1000, 256,
             root.setBounds(0x1000, 256).andPerms(cheri::permDataRW)});
        buffers.push_back(
            {0x2000, 256,
             root.setBounds(0x2000, 256).andPerms(cheri::permDataRW)});
    }

    TaggedMemory mem;
    std::vector<BufferMapping> buffers;
};

TEST_F(CpuModelTest, FunctionalLoadStore)
{
    CpuAccessor cpu(mem, buffers, false);
    cpu.st<std::uint32_t>(0, 4, 0xcafe);
    EXPECT_EQ(cpu.ld<std::uint32_t>(0, 4), 0xcafeu);
    // Data really lands in shared memory at the mapped address.
    EXPECT_EQ(mem.readValue<std::uint32_t>(0x1010), 0xcafeu);
}

TEST_F(CpuModelTest, CyclesAccumulateByOpClass)
{
    CpuCostParams costs;
    CpuAccessor cpu(mem, buffers, false, costs);
    const Cycles c0 = cpu.cycles();
    cpu.computeInt(10);
    EXPECT_EQ(cpu.cycles() - c0, 10 * costs.intOp);
    cpu.computeFp(4);
    EXPECT_EQ(cpu.cycles() - c0, 10 * costs.intOp + 4 * costs.fpOp);
}

TEST_F(CpuModelTest, MissThenHitCosts)
{
    CpuCostParams costs;
    CpuAccessor cpu(mem, buffers, false, costs);
    cpu.ld<std::uint64_t>(0, 0); // cold miss
    const Cycles after_miss = cpu.cycles();
    EXPECT_EQ(after_miss, costs.missPenalty);
    cpu.ld<std::uint64_t>(0, 1); // same line: hit
    EXPECT_EQ(cpu.cycles() - after_miss, costs.loadHit);
}

TEST_F(CpuModelTest, CheriCheckAllowsBenignAccess)
{
    CpuAccessor cpu(mem, buffers, true);
    cpu.st<std::uint8_t>(0, 0, 1);
    cpu.st<std::uint8_t>(0, 255, 1);
    EXPECT_EQ(cpu.stores(), 2u);
}

TEST_F(CpuModelTest, OutOfBufferAccessPanics)
{
    CpuAccessor cpu(mem, buffers, false);
    EXPECT_THROW(cpu.ld<std::uint32_t>(0, 64), SimError); // 256..259
    EXPECT_THROW(cpu.ld<std::uint8_t>(7, 0), SimError);   // no object 7
}

TEST_F(CpuModelTest, CheriPermissionViolationPanics)
{
    auto ro = buffers;
    ro[0].cap = ro[0].cap.andPerms(cheri::permDataRO);
    CpuAccessor cpu(mem, ro, true);
    EXPECT_EQ(cpu.ld<std::uint8_t>(0, 0), 0u);
    EXPECT_THROW(cpu.st<std::uint8_t>(0, 0, 1), SimError);
}

TEST_F(CpuModelTest, CheriCopyRunsAtCapabilityWidth)
{
    CpuCostParams costs;
    costs.cheriTagMissInterval = 0; // isolate the copy-width effect
    CpuAccessor plain(mem, buffers, false, costs);
    CpuAccessor cheri(mem, buffers, true, costs);

    const Cycles p0 = plain.cycles();
    plain.copy(1, 0, 0, 0, 128);
    const Cycles plain_cost = plain.cycles() - p0;

    const Cycles c0 = cheri.cycles();
    cheri.copy(1, 0, 0, 0, 128);
    const Cycles cheri_cost = cheri.cycles() - c0;

    // 16 iterations vs 8: the loop part halves (cache charges equal).
    EXPECT_LT(cheri_cost, plain_cost);
    EXPECT_EQ(plain_cost - cheri_cost, 8 * costs.copyPerWord);
}

TEST_F(CpuModelTest, CopyMovesData)
{
    CpuAccessor cpu(mem, buffers, false);
    for (unsigned i = 0; i < 32; ++i)
        cpu.st<std::uint8_t>(0, i, static_cast<std::uint8_t>(i * 3));
    cpu.copy(1, 8, 0, 0, 32);
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(cpu.ld<std::uint8_t>(1, 8 + i),
                  static_cast<std::uint8_t>(i * 3));
}

TEST_F(CpuModelTest, TaskSetupCheaperWithoutCheri)
{
    CpuAccessor plain(mem, buffers, false);
    CpuAccessor cheri(mem, buffers, true);
    plain.chargeTaskSetup();
    cheri.chargeTaskSetup();
    EXPECT_LT(plain.cycles(), cheri.cycles());
}

TEST_F(CpuModelTest, CheriTagFetchChargesOnMisses)
{
    CpuCostParams costs;
    costs.cheriTagMissInterval = 1; // every miss
    CpuAccessor plain(mem, buffers, false, costs);
    CpuAccessor cheri(mem, buffers, true, costs);
    for (unsigned line = 0; line < 4; ++line) {
        plain.ld<std::uint8_t>(0, line * 64);
        cheri.ld<std::uint8_t>(0, line * 64);
    }
    EXPECT_EQ(cheri.cycles() - plain.cycles(), 4u);
}

TEST_F(CpuModelTest, WindowStoreClearsCapabilityTagOnceDrained)
{
    // A store through the window writes the bytes at once and reports
    // the write when the log drains: a counter read, or destruction.
    for (const bool cheri : {false, true}) {
        mem.writeCap(0x1010, buffers[0].cap);
        mem.writeCap(0x2020, buffers[1].cap);
        const std::uint64_t tags = mem.countTags();
        {
            CpuAccessor cpu(mem, buffers, cheri);
            cpu.st<std::uint32_t>(0, 5, 0xfeed); // bytes 0x14..0x17
            EXPECT_EQ(cpu.stores(), 1u);
            EXPECT_FALSE(mem.tagAt(0x1010));
            EXPECT_EQ(mem.countTags(), tags - 1);

            cpu.st<std::uint8_t>(1, 0x2f, 1); // last byte of 0x2020
        }
        EXPECT_FALSE(mem.tagAt(0x2020));
        EXPECT_EQ(mem.countTags(), tags - 2);
        EXPECT_EQ(mem.readValue<std::uint32_t>(0x1014), 0xfeedu);
    }
}

/**
 * Run every access of both kinds, at every offset over a
 * @p buf_bytes buffer and a few bytes past it, with sizes 1-16, through
 * a CHERI CpuAccessor holding @p cap. An access must be accepted
 * exactly when it lies inside the buffer and Capability::checkAccess
 * passes; a refusal must name the fault checkAccess gives, or the
 * buffer overrun, which is checked first. @return the first mismatch,
 * or "" when there is none; @p accepted counts allowed accesses.
 */
std::string
windowMismatch(TaggedMemory &mem, Addr base, std::uint64_t buf_bytes,
               const cheri::Capability &cap, std::uint64_t &accepted)
{
    CpuAccessor cpu(mem, {{base, buf_bytes, cap}}, true);
    std::uint8_t data[16] = {};
    for (const bool store : {false, true}) {
        const auto kind =
            store ? cheri::AccessKind::store : cheri::AccessKind::load;
        for (std::uint64_t off = 0; off <= buf_bytes + 2; ++off) {
            for (std::uint32_t size = 1; size <= 16; ++size) {
                const bool in_buffer = off + size <= buf_bytes;
                const cheri::CapFault fault =
                    cap.checkAccess(kind, base + off, size);
                const bool allowed =
                    in_buffer && fault == cheri::CapFault::none;
                std::string refusal;
                try {
                    if (store)
                        cpu.store(0, off, data, size);
                    else
                        cpu.load(0, off, data, size);
                } catch (const SimError &e) {
                    refusal = e.what();
                }
                const std::string want =
                    allowed     ? ""
                    : in_buffer ? cheri::capFaultName(fault)
                                : "out of buffer";
                accepted += allowed;
                if (allowed ? refusal.empty()
                            : refusal.find(want) != std::string::npos)
                    continue;
                return cap.toString() + (store ? " store" : " load") +
                       " off=" + std::to_string(off) +
                       " size=" + std::to_string(size) + ": want '" +
                       want + "', got '" + refusal + "'";
            }
        }
    }
    return "";
}

/**
 * Exhaustive at small scope: the CHERI CPU's windows give the verdict
 * of Capability::checkAccess over every subset of load/store
 * permission and capability bounds up to two bytes either side of the
 * buffer; one instance per tag x seal combination.
 */
class CpuWindowEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, bool>>
{
};

TEST_P(CpuWindowEquivalence, MatchesCheckAccessExhaustively)
{
    const auto [tagged, sealed] = GetParam();
    constexpr Addr base = 0x1000;
    constexpr std::uint64_t bufBytes = 16;
    const cheri::Capability root = cheri::Capability::root();
    TaggedMemory mem(1 << 16);
    std::uint64_t accepted = 0;

    ::testing::internal::CaptureStderr(); // every refusal logs a panic
    std::string mismatch;
    for (unsigned rw = 0; rw < 4 && mismatch.empty(); ++rw) {
        for (int dlo = -2; dlo <= 2 && mismatch.empty(); ++dlo) {
            for (int dhi = -2; dhi <= 2 && mismatch.empty(); ++dhi) {
                cheri::Capability cap =
                    root.setBounds(base + dlo, bufBytes - dlo + dhi, true)
                        .andPerms(cheri::permGlobal |
                                  (rw & 1 ? cheri::permLoad : 0u) |
                                  (rw & 2 ? cheri::permStore : 0u));
                if (sealed)
                    cap = cap.seal(root, 5);
                if (!tagged)
                    cap = cap.cleared();
                ASSERT_EQ(cap.sealed(), sealed);
                mismatch = windowMismatch(mem, base, bufBytes, cap, accepted);
            }
        }
    }
    ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(mismatch, "");
    EXPECT_EQ(accepted > 0, tagged && !sealed);
}

INSTANTIATE_TEST_SUITE_P(TagAndSeal, CpuWindowEquivalence,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

} // namespace
} // namespace capcheck
