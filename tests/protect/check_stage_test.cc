#include <gtest/gtest.h>

#include <vector>

#include "capchecker/capchecker.hh"
#include "mem/mem_ctrl.hh"
#include "protect/check_stage.hh"
#include "protect/no_protection.hh"

namespace capcheck::protect
{
namespace
{

/** Terminal consumer recording accept cycles; one that refuses
 *  retries the stage once it takes requests again. */
class Sink : public SimObject, public TimingConsumer
{
  public:
    Sink(EventQueue &eq, stats::StatGroup *root)
        : SimObject(eq, "sink", root),
          port(*this, "cpu_side", static_cast<TimingConsumer &>(*this))
    {
    }

    bool
    tryAcceptAt(const MemRequest &req, Cycles when) override
    {
        if (reject_all)
            return false;
        accepted.push_back({req.id, when});
        return true;
    }

    void
    unblock()
    {
        reject_all = false;
        port.sendRetry(curCycle());
    }

    ResponsePort port;
    bool reject_all = false;
    std::vector<std::pair<std::uint64_t, Cycles>> accepted;
};

class Upstream : public SimObject, public ResponseHandler
{
  public:
    Upstream(EventQueue &eq, stats::StatGroup *root)
        : SimObject(eq, "upstream", root),
          port(*this, "mem_side",
               static_cast<ResponseHandler &>(*this))
    {
    }

    void
    handleResponse(const MemResponse &resp) override
    {
        responses.push_back(resp);
    }

    RequestPort port;
    std::vector<MemResponse> responses;
};

MemRequest
makeReq(std::uint64_t id, Addr addr = 0x1000, TaskId task = 0,
        ObjectId obj = 0)
{
    MemRequest req;
    req.cmd = MemCmd::read;
    req.addr = addr;
    req.size = 8;
    req.task = task;
    req.object = obj;
    req.srcPort = 0;
    req.id = id;
    return req;
}

TEST(CheckStage, PassThroughWithZeroLatency)
{
    EventQueue eq;
    stats::StatGroup root("t");
    NoProtection none;
    Sink sink(eq, &root);
    CheckStage stage(eq, &root, none);
    stage.memSide().bind(sink.port);

    LambdaEvent ev([&] { EXPECT_TRUE(stage.tryAcceptAt(makeReq(1), eq.curCycle())); });
    eq.schedule(&ev, 5);
    eq.run();

    ASSERT_EQ(sink.accepted.size(), 1u);
    EXPECT_EQ(sink.accepted[0].second, 5u); // same cycle: no latency
}

TEST(CheckStage, AddsConfiguredLatency)
{
    EventQueue eq;
    stats::StatGroup root("t");
    capchecker::CapChecker::Params params;
    params.checkCycles = 3;
    capchecker::CapChecker checker(params);
    checker.installCapability(0, 0,
                              cheri::Capability::root()
                                  .setBounds(0x1000, 0x100)
                                  .andPerms(cheri::permDataRW));
    Sink sink(eq, &root);
    CheckStage stage(eq, &root, checker);
    stage.memSide().bind(sink.port);

    LambdaEvent ev([&] { EXPECT_TRUE(stage.tryAcceptAt(makeReq(1), eq.curCycle())); });
    eq.schedule(&ev, 10);
    eq.run();

    ASSERT_EQ(sink.accepted.size(), 1u);
    EXPECT_EQ(sink.accepted[0].second, 13u);
}

TEST(CheckStage, OneAcceptPerCycle)
{
    EventQueue eq;
    stats::StatGroup root("t");
    NoProtection none;
    Sink sink(eq, &root);
    CheckStage stage(eq, &root, none);
    stage.memSide().bind(sink.port);

    LambdaEvent ev([&] {
        EXPECT_TRUE(stage.tryAcceptAt(makeReq(1), eq.curCycle()));
        EXPECT_FALSE(stage.tryAcceptAt(makeReq(2), eq.curCycle()));
    });
    eq.schedule(&ev, 1);
    eq.run();
}

TEST(CheckStage, DeniedRequestGetsErrorResponse)
{
    EventQueue eq;
    stats::StatGroup root("t");
    capchecker::CapChecker checker; // nothing installed: all denied
    Sink sink(eq, &root);
    CheckStage stage(eq, &root, checker);
    stage.memSide().bind(sink.port);
    Upstream upstream(eq, &root);
    stage.cpuSide().bind(upstream.port);

    LambdaEvent ev([&] { EXPECT_TRUE(stage.tryAcceptAt(makeReq(7), eq.curCycle())); });
    eq.schedule(&ev, 1);
    eq.run();

    EXPECT_TRUE(sink.accepted.empty());
    ASSERT_EQ(upstream.responses.size(), 1u);
    EXPECT_EQ(upstream.responses[0].id, 7u);
    EXPECT_FALSE(upstream.responses[0].ok);
    EXPECT_EQ(stage.denials(), 1u);
}

TEST(CheckStage, ZeroLatencyHoldsARefusedBeatAndChecksItOnce)
{
    EventQueue eq;
    stats::StatGroup root("t");
    NoProtection none;
    Sink sink(eq, &root);
    sink.reject_all = true;
    CheckStage stage(eq, &root, none);
    stage.memSide().bind(sink.port);

    // A transparent pass-through that finds the component below taken
    // keeps the checked beat and forwards it once that component
    // retries; the caller is not made to offer it again.
    LambdaEvent ev([&] { EXPECT_TRUE(stage.tryAcceptAt(makeReq(1), eq.curCycle())); });
    eq.schedule(&ev, 1);
    LambdaEvent unblock([&] { sink.unblock(); });
    eq.schedule(&unblock, 4);
    eq.run();
    // The sink frees up on cycle 4, after a pipe polled that cycle
    // would have tried it: the beat goes on on cycle 5.
    ASSERT_EQ(sink.accepted.size(), 1u);
    EXPECT_EQ(sink.accepted[0].second, 5u);
    const auto *checked = dynamic_cast<const stats::Scalar *>(
        stage.statGroup().find("checked"));
    ASSERT_NE(checked, nullptr);
    EXPECT_EQ(checked->value(), 1.0);
}

TEST(CheckStage, PipelinedStageRetriesWhileDownstreamStalls)
{
    EventQueue eq;
    stats::StatGroup root("t");
    capchecker::CapChecker checker; // latency 1
    checker.installCapability(0, 0,
                              cheri::Capability::root()
                                  .setBounds(0x1000, 0x100)
                                  .andPerms(cheri::permDataRW));
    Sink sink(eq, &root);
    sink.reject_all = true;
    CheckStage stage(eq, &root, checker);
    stage.memSide().bind(sink.port);

    LambdaEvent ev([&] { EXPECT_TRUE(stage.tryAcceptAt(makeReq(1), eq.curCycle())); });
    eq.schedule(&ev, 1);
    // The sink frees up on cycle 6: the head goes on the cycle after.
    LambdaEvent unblock([&] { sink.unblock(); });
    eq.schedule(&unblock, 6);
    eq.run();

    ASSERT_EQ(sink.accepted.size(), 1u);
    EXPECT_EQ(sink.accepted[0].second, 7u);
}

TEST(CheckStage, BackpressureWhenPipeFills)
{
    EventQueue eq;
    stats::StatGroup root("t");
    NoProtection none;
    Sink sink(eq, &root);
    sink.reject_all = true;
    CheckStage stage(eq, &root, none);
    stage.memSide().bind(sink.port);

    // With downstream stuck, only a bounded number of requests fit.
    std::vector<std::unique_ptr<LambdaEvent>> events;
    unsigned accepted = 0;
    for (Cycles c = 1; c <= 12; ++c) {
        events.push_back(std::make_unique<LambdaEvent>([&stage,
                                                        &accepted, c] {
            accepted += stage.tryAcceptAt(makeReq(c), c);
        }));
        eq.schedule(events.back().get(), c);
    }
    eq.run(20);
    EXPECT_LT(accepted, 12u);
}

TEST(CheckStage, PipelinesBackToBackRequests)
{
    EventQueue eq;
    stats::StatGroup root("t");
    capchecker::CapChecker checker;
    checker.installCapability(0, 0,
                              cheri::Capability::root()
                                  .setBounds(0x1000, 0x1000)
                                  .andPerms(cheri::permDataRW));
    Sink sink(eq, &root);
    CheckStage stage(eq, &root, checker);
    stage.memSide().bind(sink.port);

    std::vector<std::unique_ptr<LambdaEvent>> events;
    for (Cycles c = 1; c <= 5; ++c) {
        events.push_back(std::make_unique<LambdaEvent>(
            [&stage, c] { EXPECT_TRUE(stage.tryAcceptAt(makeReq(c), c)); },
            Event::arbitratePrio));
        eq.schedule(events.back().get(), c);
    }
    eq.run();

    // Throughput 1/cycle: five requests, five consecutive deliveries.
    ASSERT_EQ(sink.accepted.size(), 5u);
    for (unsigned i = 0; i < 5; ++i) {
        EXPECT_EQ(sink.accepted[i].first, i + 1);
        EXPECT_EQ(sink.accepted[i].second, i + 2); // +1 cycle check
    }
}

} // namespace
} // namespace capcheck::protect
