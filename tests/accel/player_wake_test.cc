/**
 * @file
 * The trace player's wake schedule, pinned cycle by cycle. The player
 * sleeps wherever a per-cycle poll would find nothing to do and is
 * woken by a grant retry or a response on exactly the cycle the poll
 * would have acted on. These hand-built traces run on a minimal
 * player -> xbar -> check stage -> memctrl platform and pin the issue
 * cycle of every beat and the finish cycle, as recorded under a
 * player that still took its no-op ticks after credit-saturating
 * issues and before delays and barriers. Memory latencies are chosen
 * so that a response or a denial lands on, before and after the
 * cycle right after such an issue; a wake rule that is off by one
 * cycle moves an issue or the finish.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "accel/trace_player.hh"
#include "mem/interconnect.hh"
#include "mem/mem_ctrl.hh"
#include "protect/check_stage.hh"

namespace capcheck::accel
{
namespace
{

using workloads::BufferAccess;
using workloads::BufferPlacement;
using workloads::KernelSpec;

constexpr Addr streamBase = 0x1000;
constexpr Addr extBase = 0x4000;

/** Allows everything but the beats whose address it was told to deny. */
class DenyAddrs : public protect::ProtectionChecker
{
  public:
    explicit DenyAddrs(std::vector<Addr> denied) : denied(std::move(denied))
    {
    }

    protect::CheckResult
    check(const MemRequest &req) override
    {
        for (const Addr addr : denied) {
            if (req.addr == addr)
                return protect::CheckResult::deny("test");
        }
        return protect::CheckResult::allow();
    }

    protect::SchemeProperties properties() const override { return {}; }
    std::string name() const override { return "deny-addrs"; }

  private:
    std::vector<Addr> denied;
};

/** One body op of a hand-built trace, appended through InstanceTrace. */
struct Step
{
    TraceRecord::Kind kind;
    std::uint64_t value = 0; ///< access: offset; delay: cycles
};

struct Scenario
{
    std::vector<Step> ops;
    unsigned maxOutstanding = 8;
    Cycles memLatency = 4;
    /** Bytes of a streamed read-write buffer (0 = no streams). */
    std::uint64_t streamBytes = 0;
    /** Body beats at these ext-buffer offsets are denied. */
    std::vector<std::uint64_t> deniedOffsets;
};

/** "issue c0 c1 ... | finish F [failed]" for one replay. */
std::string
replay(const Scenario &sc)
{
    KernelSpec spec;
    spec.name = "wake";
    spec.buffers.push_back({"ext", 256, BufferAccess::readWrite,
                            BufferPlacement::external});
    if (sc.streamBytes) {
        spec.buffers.push_back({"stream", sc.streamBytes,
                                BufferAccess::readWrite,
                                BufferPlacement::streamed});
    }
    spec.timing.maxOutstanding = sc.maxOutstanding;
    spec.timing.startupCycles = 2;

    std::vector<Addr> denied;
    for (const std::uint64_t off : sc.deniedOffsets)
        denied.push_back(extBase + off);
    DenyAddrs checker(denied);

    EventQueue eq;
    stats::StatGroup root("t");
    MemoryController memctrl(eq, &root, sc.memLatency);
    protect::CheckStage stage(eq, &root, checker);
    AxiInterconnect xbar(eq, &root, 1);
    xbar.memSide().bind(stage.cpuSide());
    stage.memSide().bind(memctrl.cpuSide());

    InstanceTrace trace;
    for (const Step &step : sc.ops) {
        switch (step.kind) {
          case TraceRecord::Kind::access:
            trace.access(MemCmd::read, 0, step.value, 8);
            break;
          case TraceRecord::Kind::delay:
            trace.delay(step.value);
            break;
          case TraceRecord::Kind::barrier:
            trace.barrier();
            break;
        }
    }
    TracePlayer player(eq, &root, "p0", spec,
                       std::make_shared<const InstanceTrace>(trace),
                       {{extBase, 256, {}}, {streamBase, 4096, {}}}, 0, 0,
                       AddressingMode{});
    player.memSide().bind(xbar.accelSide(0));
    std::ostringstream os;
    os << "issue";
    player.issueProbe().attach(
        [&](const TimedRequest &ev) { os << ' ' << ev.cycle; });
    player.start(0);
    eq.run();

    EXPECT_TRUE(player.done());
    os << " | finish " << player.finishCycle();
    if (player.failed())
        os << " failed";
    return os.str();
}

Step
read(std::uint64_t off)
{
    return {TraceRecord::Kind::access, off};
}

Step
delay(Cycles cycles)
{
    return {TraceRecord::Kind::delay, cycles};
}

Step
barrier()
{
    return {TraceRecord::Kind::barrier};
}

/** @p n reads of consecutive ext-buffer words. */
std::vector<Step>
reads(unsigned n)
{
    std::vector<Step> ops;
    for (unsigned i = 0; i < n; ++i)
        ops.push_back(read(8 * i));
    return ops;
}

TEST(PlayerWake, OneCreditBackToBack)
{
    Scenario sc;
    sc.ops = reads(4);
    sc.maxOutstanding = 1;
    sc.memLatency = 1;
    EXPECT_EQ(replay(sc), "issue 3 6 9 12 | finish 14");
    sc.memLatency = 3;
    EXPECT_EQ(replay(sc), "issue 3 8 13 18 | finish 23");
}

TEST(PlayerWake, EightCreditsBackToBack)
{
    Scenario sc;
    sc.ops = reads(12);
    sc.maxOutstanding = 8;
    // The window fills with the issue on cycle 10. Latency 7 lands the
    // first response on cycle 11, right after it; 6 and 8 land it on
    // the saturating cycle and one cycle late.
    sc.memLatency = 6;
    EXPECT_EQ(replay(sc),
              "issue 3 4 5 6 7 8 9 10 11 12 13 14 | finish 22");
    sc.memLatency = 7;
    EXPECT_EQ(replay(sc),
              "issue 3 4 5 6 7 8 9 10 11 12 13 14 | finish 22");
    sc.memLatency = 8;
    EXPECT_EQ(replay(sc),
              "issue 3 4 5 6 7 8 9 10 13 14 15 16 | finish 25");
}

TEST(PlayerWake, StreamCreditWindow)
{
    // 20 beats each way through the 16-credit stream window. The
    // window fills with the issue on cycle 17; latency 15 lands the
    // first response on cycle 18.
    Scenario sc;
    sc.streamBytes = 160;
    sc.memLatency = 14;
    EXPECT_EQ(replay(sc),
              "issue 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 "
              "38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 "
              "57 | finish 72");
    sc.memLatency = 15;
    EXPECT_EQ(replay(sc),
              "issue 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 "
              "40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 "
              "59 | finish 76");
    sc.memLatency = 16;
    EXPECT_EQ(replay(sc),
              "issue 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 20 21 22 23 "
              "42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 60 61 62 "
              "63 | finish 80");
    // 16 beats each way: the last beat of each stream fills the
    // window, and the first response lands right after it or later.
    sc.streamBytes = 128;
    for (const Cycles latency : {15, 16}) {
        SCOPED_TRACE(latency);
        sc.memLatency = latency;
        EXPECT_EQ(replay(sc),
                  "issue 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 36 37 38 "
                  "39 40 41 42 43 44 45 46 47 48 49 50 51 | finish 68");
    }
}

TEST(PlayerWake, DenialRightAfterSaturatingIssue)
{
    // Two credits: the stage denies the first beat on the cycle right
    // after the second (saturating) issue.
    Scenario sc;
    sc.ops = reads(4);
    sc.maxOutstanding = 2;
    sc.deniedOffsets = {0};
    EXPECT_EQ(replay(sc), "issue 3 4 | finish 10 failed");
    // One credit: the denial lands one cycle later.
    sc.maxOutstanding = 1;
    EXPECT_EQ(replay(sc), "issue 3 | finish 6 failed");
    // A later beat denied while the window is full.
    sc.maxOutstanding = 2;
    sc.memLatency = 1;
    sc.deniedOffsets = {16};
    EXPECT_EQ(replay(sc), "issue 3 4 5 6 | finish 9 failed");
}

TEST(PlayerWake, SaturatingIssueThenDelayBarrierOrEnd)
{
    // The second beat fills the window on cycle 4. Latency 1 lands
    // the first response on cycle 5, right after it.
    const std::vector<Step> then_delay = {read(0), read(8), delay(5),
                                          read(16), read(24)};
    const std::vector<Step> then_barrier = {read(0), read(8), barrier(),
                                            read(16), read(24)};
    const std::vector<Step> then_end = {read(0), read(8)};
    Scenario sc;
    sc.maxOutstanding = 2;
    sc.memLatency = 1;
    sc.ops = then_delay;
    EXPECT_EQ(replay(sc), "issue 3 4 10 11 | finish 13");
    sc.ops = then_barrier;
    EXPECT_EQ(replay(sc), "issue 3 4 8 9 | finish 11");
    sc.ops = then_end;
    EXPECT_EQ(replay(sc), "issue 3 4 | finish 6");
    sc.memLatency = 2;
    sc.ops = then_delay;
    EXPECT_EQ(replay(sc), "issue 3 4 10 11 | finish 15");
    sc.ops = then_barrier;
    EXPECT_EQ(replay(sc), "issue 3 4 8 9 | finish 13");
    sc.ops = then_end;
    EXPECT_EQ(replay(sc), "issue 3 4 | finish 8");
}

TEST(PlayerWake, IssueThenBarrier)
{
    // The second issue (cycle 4) leaves the window open and is
    // followed by a barrier. Latency 1 lands the first response on
    // cycle 5, right after it, with the second beat still in flight.
    Scenario sc;
    sc.maxOutstanding = 4;
    sc.ops = {read(0), read(8), barrier(), read(16)};
    sc.memLatency = 1;
    EXPECT_EQ(replay(sc), "issue 3 4 8 | finish 10");
    sc.memLatency = 2;
    EXPECT_EQ(replay(sc), "issue 3 4 8 | finish 12");
    sc.deniedOffsets = {0};
    sc.memLatency = 1;
    EXPECT_EQ(replay(sc), "issue 3 4 | finish 7 failed");
}

TEST(PlayerWake, ResponseDuringDelay)
{
    Scenario sc;
    sc.maxOutstanding = 4;
    sc.ops = {read(0), delay(10), read(8), read(16)};
    // The delay runs from cycle 4 to 14. The first response lands
    // inside it (cycles 5, 9 and its last cycle 13) and after it (16).
    sc.memLatency = 1;
    EXPECT_EQ(replay(sc), "issue 3 14 15 | finish 17");
    sc.memLatency = 5;
    EXPECT_EQ(replay(sc), "issue 3 14 15 | finish 21");
    sc.memLatency = 9;
    EXPECT_EQ(replay(sc), "issue 3 14 15 | finish 25");
    sc.memLatency = 12;
    EXPECT_EQ(replay(sc), "issue 3 14 15 | finish 28");
}

TEST(PlayerWake, ResponseRightAfterIssueThenDelay)
{
    // The second issue (cycle 4) is followed by a delay; the first
    // beat's response lands on cycle 5, right after it.
    Scenario sc;
    sc.maxOutstanding = 4;
    sc.memLatency = 1;
    sc.ops = {read(0), read(8), delay(1), read(16)};
    EXPECT_EQ(replay(sc), "issue 3 4 6 | finish 8");
    sc.ops = {read(0), read(8), delay(3), read(16)};
    EXPECT_EQ(replay(sc), "issue 3 4 8 | finish 10");
}

TEST(PlayerWake, DenialDuringDelay)
{
    Scenario sc;
    sc.maxOutstanding = 4;
    sc.ops = {read(0), delay(10), read(8)};
    sc.deniedOffsets = {0};
    EXPECT_EQ(replay(sc), "issue 3 | finish 6 failed");
    // The denial lands on the cycle right after an issue followed by
    // a delay, with that issue's beat still in flight.
    sc.ops = {read(0), read(8), delay(10), read(16)};
    sc.memLatency = 1;
    EXPECT_EQ(replay(sc), "issue 3 4 | finish 7 failed");
    sc.memLatency = 2;
    EXPECT_EQ(replay(sc), "issue 3 4 | finish 8 failed");
}

TEST(PlayerWake, ZeroCycleDelay)
{
    Scenario sc;
    sc.ops = {read(0), delay(0), read(8), delay(0),
              delay(1), read(16)};
    EXPECT_EQ(replay(sc), "issue 3 5 8 | finish 14");
    sc.maxOutstanding = 1;
    EXPECT_EQ(replay(sc), "issue 3 9 15 | finish 21");
}

} // namespace
} // namespace capcheck::accel
