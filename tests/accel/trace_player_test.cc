#include <gtest/gtest.h>

#include "accel/trace_player.hh"
#include "base/logging.hh"
#include "capchecker/capchecker.hh"
#include "mem/interconnect.hh"
#include "mem/mem_ctrl.hh"
#include "protect/check_stage.hh"
#include "protect/no_protection.hh"

namespace capcheck::accel
{
namespace
{

using workloads::BufferAccess;
using workloads::BufferPlacement;
using workloads::KernelSpec;

/** Small two-buffer spec: one streamed in/out, one external. */
KernelSpec
makeSpec(unsigned max_outstanding = 4)
{
    KernelSpec spec;
    spec.name = "t";
    spec.buffers = {
        {"stream", 64, BufferAccess::readWrite,
         BufferPlacement::streamed},
        {"ext", 64, BufferAccess::readWrite,
         BufferPlacement::external},
    };
    spec.timing.ilp = 4;
    spec.timing.maxOutstanding = max_outstanding;
    spec.timing.startupCycles = 2;
    return spec;
}

struct Platform
{
    explicit Platform(protect::ProtectionChecker &checker,
                      unsigned masters = 1)
        : root("t"), memctrl(eq, &root, 10),
          stage(eq, &root, checker), xbar(eq, &root, masters)
    {
        xbar.memSide().bind(stage.cpuSide());
        stage.memSide().bind(memctrl.cpuSide());
    }

    EventQueue eq;
    stats::StatGroup root;
    MemoryController memctrl;
    protect::CheckStage stage;
    AxiInterconnect xbar;
};

std::vector<BufferMapping>
mappings()
{
    return {{0x1000, 64, {}}, {0x2000, 64, {}}};
}

/** A player's shared copy of @p trace. */
std::shared_ptr<const InstanceTrace>
shared(InstanceTrace trace)
{
    return std::make_shared<const InstanceTrace>(std::move(trace));
}

TEST(TracePlayer, RunsStreamsAndBodyToCompletion)
{
    protect::NoProtection none;
    Platform plat(none);

    InstanceTrace trace;
    trace.access(MemCmd::read, 1, 0, 8);
    trace.delay(5);
    trace.access(MemCmd::write, 1, 8, 8);
    trace.barrier();

    const KernelSpec spec = makeSpec();
    TracePlayer player(plat.eq, &plat.root, "p0", spec, shared(trace),
                       mappings(), 0, 0, AddressingMode{});
    player.memSide().bind(plat.xbar.accelSide(0));
    bool done_cb = false;
    player.onDone([&] { done_cb = true; });
    player.start(0);
    plat.eq.run();

    EXPECT_TRUE(player.done());
    EXPECT_FALSE(player.failed());
    EXPECT_TRUE(done_cb);
    // Streams: 8 in-beats + 8 out-beats; body: 2 beats.
    EXPECT_EQ(plat.xbar.beatsGranted(), 18u);
    EXPECT_GT(player.finishCycle(), 18u);
}

TEST(TracePlayer, StartDelayDefersIssue)
{
    protect::NoProtection none;
    Platform plat(none);
    InstanceTrace trace;
    const KernelSpec spec = makeSpec();
    TracePlayer player(plat.eq, &plat.root, "p0", spec, shared(trace),
                       mappings(), 0, 0, AddressingMode{});
    player.memSide().bind(plat.xbar.accelSide(0));
    player.start(100);
    plat.eq.run();
    EXPECT_TRUE(player.done());
    EXPECT_GT(player.finishCycle(),
              100u + spec.timing.startupCycles);
}

TEST(TracePlayer, DelaysExtendRuntime)
{
    protect::NoProtection none;

    auto run_with_delay = [&](Cycles delay) {
        Platform plat(none);
        InstanceTrace trace;
        trace.delay(delay);
        const KernelSpec spec = makeSpec();
        TracePlayer player(plat.eq, &plat.root, "p0", spec, shared(trace),
                           mappings(), 0, 0, AddressingMode{});
        player.memSide().bind(plat.xbar.accelSide(0));
        player.start(0);
        plat.eq.run();
        return player.finishCycle();
    };

    // The delay replaces the single cycle the op itself would occupy.
    EXPECT_EQ(run_with_delay(500) - run_with_delay(0), 499u);
    EXPECT_EQ(run_with_delay(100) - run_with_delay(0), 99u);
}

TEST(TracePlayer, MaxOutstandingThrottlesIssue)
{
    protect::NoProtection none;

    auto run_with_credits = [&](unsigned credits) {
        Platform plat(none);
        InstanceTrace trace;
        for (unsigned i = 0; i < 8; ++i)
            trace.access(MemCmd::read, 1, 0, 8);
        const KernelSpec spec = makeSpec(credits);
        TracePlayer player(plat.eq, &plat.root, "p0", spec, shared(trace),
                           mappings(), 0, 0, AddressingMode{});
        player.memSide().bind(plat.xbar.accelSide(0));
        player.start(0);
        plat.eq.run();
        return player.finishCycle();
    };

    // credit 1: each body access waits a full round trip.
    EXPECT_GT(run_with_credits(1), run_with_credits(8) + 30);
}

TEST(TracePlayer, DeniedBeatAbortsInstance)
{
    capchecker::CapChecker checker; // nothing installed: denies all
    Platform plat(checker);

    InstanceTrace trace;
    trace.access(MemCmd::read, 1, 0, 8);
    const KernelSpec spec = makeSpec();
    TracePlayer player(plat.eq, &plat.root, "p0", spec, shared(trace),
                       mappings(), 0, 0, AddressingMode{});
    player.memSide().bind(plat.xbar.accelSide(0));
    player.start(0);
    plat.eq.run();

    EXPECT_TRUE(player.done());
    EXPECT_TRUE(player.failed());
    EXPECT_TRUE(checker.exceptionFlagSet());
}

TEST(TracePlayer, FineMetadataTravelsWithRequests)
{
    capchecker::CapChecker checker;
    checker.installCapability(0, 0,
                              cheri::Capability::root()
                                  .setBounds(0x1000, 64)
                                  .andPerms(cheri::permDataRW));
    checker.installCapability(0, 1,
                              cheri::Capability::root()
                                  .setBounds(0x2000, 64)
                                  .andPerms(cheri::permDataRW));
    Platform plat(checker);

    InstanceTrace trace;
    trace.access(MemCmd::read, 1, 16, 8);
    const KernelSpec spec = makeSpec();
    TracePlayer player(plat.eq, &plat.root, "p0", spec, shared(trace),
                       mappings(), 0, 0, AddressingMode{});
    player.memSide().bind(plat.xbar.accelSide(0));
    player.start(0);
    plat.eq.run();

    EXPECT_TRUE(player.done());
    EXPECT_FALSE(player.failed());
    EXPECT_EQ(checker.checksDenied(), 0u);
}

TEST(TracePlayer, CoarseAddressingFoldsObjectIntoAddress)
{
    capchecker::CapChecker::Params params;
    params.provenance = capchecker::Provenance::coarse;
    capchecker::CapChecker checker(params);
    checker.installCapability(0, 0,
                              cheri::Capability::root()
                                  .setBounds(0x1000, 64)
                                  .andPerms(cheri::permDataRW));
    checker.installCapability(0, 1,
                              cheri::Capability::root()
                                  .setBounds(0x2000, 64)
                                  .andPerms(cheri::permDataRW));
    Platform plat(checker);

    InstanceTrace trace;
    trace.access(MemCmd::write, 1, 0, 8);
    AddressingMode addressing;
    addressing.objectMetadata = false;
    addressing.objectInAddress = true;
    const KernelSpec spec = makeSpec();
    TracePlayer player(plat.eq, &plat.root, "p0", spec, shared(trace),
                       mappings(), 0, 0, addressing);
    player.memSide().bind(plat.xbar.accelSide(0));
    player.start(0);
    plat.eq.run();

    EXPECT_TRUE(player.done());
    EXPECT_FALSE(player.failed());
}

TEST(TracePlayer, TwoPlayersShareTheBus)
{
    protect::NoProtection none;
    Platform plat(none, /*masters=*/2);

    auto make_player = [&](PortId port) {
        InstanceTrace trace;
        for (unsigned i = 0; i < 8; ++i) {
            trace.access(MemCmd::read, 1, (i % 8) * 8, 8);
        }
        static const KernelSpec spec = makeSpec(8);
        auto player = std::make_unique<TracePlayer>(
            plat.eq, &plat.root, "p" + std::to_string(port), spec,
            shared(trace), mappings(), port, port, AddressingMode{});
        player->memSide().bind(plat.xbar.accelSide(port));
        return player;
    };

    auto p0 = make_player(0);
    auto p1 = make_player(1);
    p0->start(0);
    p1->start(0);
    plat.eq.run();

    EXPECT_TRUE(p0->done() && p1->done());
    // 2 x (16 stream-in + 16 stream-out... none: spec has stream buffer
    // of 64 B = 8 beats each way) + 2 x 8 body beats.
    EXPECT_EQ(plat.xbar.beatsGranted(), 2u * (8 + 8 + 8));
}

TEST(TracePlayer, DoubleStartPanics)
{
    protect::NoProtection none;
    Platform plat(none);
    const KernelSpec spec = makeSpec();
    TracePlayer player(plat.eq, &plat.root, "p0", spec, shared({}),
                       mappings(), 0, 0, AddressingMode{});
    player.memSide().bind(plat.xbar.accelSide(0));
    player.start(0);
    EXPECT_THROW(player.start(0), SimError);
    plat.eq.run();
}

} // namespace
} // namespace capcheck::accel
