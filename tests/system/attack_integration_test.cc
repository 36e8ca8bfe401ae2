#include <gtest/gtest.h>

#include "accel/accelerator.hh"
#include "accel/trace_accessor.hh"
#include "accel/trace_player.hh"
#include "driver/driver.hh"
#include "mem/interconnect.hh"
#include "mem/mem_ctrl.hh"
#include "protect/check_stage.hh"
#include "workloads/kernel.hh"

namespace capcheck
{
namespace
{

/**
 * End-to-end Fig. 2 scenario on the full timing platform: a benign
 * task and a malicious task run concurrently behind one shared
 * CapChecker. The malicious task's datapath issues out-of-bounds DMA
 * (as a compromised accelerator program would); the benign task must
 * complete untouched while the attacker is aborted, traced, and its
 * buffers scrubbed on deallocation.
 */
class AttackIntegration : public ::testing::Test
{
  protected:
    AttackIntegration()
        : mem(64ull << 20), heap(1 << 20, (64ull << 20) - (1 << 20)),
          stat_root("soc"), memctrl(eq, &stat_root, 30),
          check_stage(eq, &stat_root, checker),
          xbar(eq, &stat_root, 2),
          benign_accel("aes", workloads::kernelSpec("aes"), 1),
          attacker_accel("stencil2d", workloads::kernelSpec("stencil2d"),
                         1),
          driver(mem, heap, tree, true, &checker)
    {
        xbar.memSide().bind(check_stage.cpuSide());
        check_stage.memSide().bind(memctrl.cpuSide());
        app = tree.derive(
            tree.rootNode(), cheri::CapNodeKind::cpuTask,
            tree.capOf(tree.rootNode()).setBounds(1 << 20, 60ull << 20),
            "app");
    }

    TaggedMemory mem;
    RegionAllocator heap;
    cheri::CapTree tree;
    cheri::CapNodeId app = cheri::invalidCapNode;
    capchecker::CapChecker checker;

    EventQueue eq;
    stats::StatGroup stat_root;
    MemoryController memctrl;
    protect::CheckStage check_stage;
    AxiInterconnect xbar;

    accel::Accelerator benign_accel;
    accel::Accelerator attacker_accel;
    driver::Driver driver;
};

TEST_F(AttackIntegration, MaliciousDmaIsBlockedBenignTaskUnaffected)
{
    // --- Benign task: real aes workload, task 0, port 0. ---
    auto benign_handle = driver.allocateTask(benign_accel, 0, app);
    ASSERT_TRUE(benign_handle);
    const auto benign_kernel = workloads::createKernel("aes");
    Rng rng(5);
    CpuAccessor init_acc(mem, benign_handle->buffers, false);
    benign_kernel->init(init_acc, rng);
    accel::TraceAccessor tracer(mem, benign_accel.spec(),
                                benign_handle->buffers);
    benign_kernel->run(tracer);
    accel::TracePlayer benign_player(
        eq, &stat_root, "benign", benign_accel.spec(),
        std::make_shared<const accel::InstanceTrace>(tracer.take()),
        benign_handle->buffers, 0, 0, accel::AddressingMode{});
    benign_player.memSide().bind(xbar.accelSide(0));

    // --- Attacker task: hand-crafted malicious DMA, task 1, port 1.
    // Its datapath walks right past the end of its own buffer toward
    // the benign task's memory (a "user-defined loop bound larger than
    // the array", Section 6.2). ---
    auto attacker_handle = driver.allocateTask(attacker_accel, 1, app);
    ASSERT_TRUE(attacker_handle);
    accel::InstanceTrace evil;
    for (unsigned i = 0; i < 64; ++i) {
        evil.access(MemCmd::read, 0,
                    attacker_handle->buffers[0].size + i * 8, 8);
    }
    accel::TracePlayer attacker_player(
        eq, &stat_root, "attacker", attacker_accel.spec(),
        std::make_shared<const accel::InstanceTrace>(evil),
        attacker_handle->buffers, 1, 1, accel::AddressingMode{});
    attacker_player.memSide().bind(xbar.accelSide(1));

    // Poison the attacker's buffer so we can observe the scrub.
    mem.writeValue<std::uint64_t>(attacker_handle->buffers[0].base,
                                  0x5ec2e7ull);

    benign_player.start(0);
    attacker_player.start(0);
    eq.run();

    // The attacker was stopped at its first out-of-bounds beat.
    EXPECT_TRUE(attacker_player.done());
    EXPECT_TRUE(attacker_player.failed());
    EXPECT_TRUE(checker.exceptionFlagSet());

    // The violation is traceable to (task 1, object 0).
    ASSERT_FALSE(checker.exceptionLog().empty());
    EXPECT_EQ(checker.exceptionLog()[0].task, 1u);
    EXPECT_EQ(checker.exceptionLog()[0].object, 0u);
    EXPECT_FALSE(checker.capTable().exceptionEntries().empty());

    // The benign task finished and its results are correct.
    EXPECT_TRUE(benign_player.done());
    EXPECT_FALSE(benign_player.failed());
    CpuAccessor check_acc(mem, benign_handle->buffers, false);
    EXPECT_TRUE(benign_kernel->check(check_acc));

    // Deallocation scrubs the attacker's buffers (Fig. 6 (2)).
    const Addr attacker_base = attacker_handle->buffers[0].base;
    driver.deallocateTask(*attacker_handle, true);
    EXPECT_EQ(mem.readValue<std::uint64_t>(attacker_base), 0u);
    driver.deallocateTask(*benign_handle, false);
    EXPECT_EQ(checker.capTable().used(), 0u);
}

TEST_F(AttackIntegration, ForgedObjectMetadataCannotCrossTasks)
{
    // Even if the attacker controlled its trace entirely, Fine-mode
    // object ids come from the hardware port: probing every object id
    // never reaches another task's buffers.
    auto victim_handle = driver.allocateTask(benign_accel, 0, app);
    auto attacker_handle = driver.allocateTask(attacker_accel, 1, app);
    ASSERT_TRUE(victim_handle && attacker_handle);

    const Addr victim_base = victim_handle->buffers[0].base;

    accel::InstanceTrace evil;
    for (ObjectId obj = 0; obj < 3; ++obj) {
        // Offset chosen so base + off == victim's buffer (the address
        // adder wraps, so any target is expressible).
        const Addr base = attacker_handle->buffers[obj].base;
        evil.access(MemCmd::read, obj, victim_base - base, 8);
    }
    ASSERT_FALSE(evil.empty());

    accel::TracePlayer attacker_player(
        eq, &stat_root, "attacker", attacker_accel.spec(),
        std::make_shared<const accel::InstanceTrace>(evil),
        attacker_handle->buffers, 1, 1, accel::AddressingMode{});
    attacker_player.memSide().bind(xbar.accelSide(1));
    attacker_player.start(0);
    eq.run();

    EXPECT_TRUE(attacker_player.failed());
    EXPECT_EQ(checker.checksDenied(), 1u); // aborted on first beat

    driver.deallocateTask(*attacker_handle, true);
    driver.deallocateTask(*victim_handle, false);
}

} // namespace
} // namespace capcheck
