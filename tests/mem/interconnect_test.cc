#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "base/logging.hh"
#include "mem/interconnect.hh"
#include "mem/mem_ctrl.hh"

namespace capcheck
{
namespace
{

/**
 * Records responses with the cycles they are due at the master. Owns
 * one master-side request port per interconnect slot it plugs into.
 */
class Collector : public SimObject, public ResponseHandler
{
  public:
    Collector(EventQueue &eq, stats::StatGroup *root,
              unsigned num_ports)
        : SimObject(eq, "collector", root)
    {
        for (unsigned p = 0; p < num_ports; ++p) {
            ports.push_back(std::make_unique<RequestPort>(
                *this, "mem_side" + std::to_string(p),
                static_cast<ResponseHandler &>(*this)));
        }
    }

    void
    handleResponse(const MemResponse &resp) override
    {
        responses.push_back(resp);
        cycles.push_back(resp.due);
    }

    std::vector<std::unique_ptr<RequestPort>> ports;
    std::vector<MemResponse> responses;
    std::vector<Cycles> cycles;
};

/** xbar + memctrl wired together, with per-port collectors. */
struct BusFixture
{
    BusFixture(unsigned masters, Cycles latency, unsigned burst = 1)
        : root("soc"), memctrl(eq, &root, latency),
          xbar(eq, &root, masters, burst),
          collector(eq, &root, masters)
    {
        xbar.memSide().bind(memctrl.cpuSide());
        for (unsigned p = 0; p < masters; ++p)
            collector.ports[p]->bind(xbar.accelSide(p));
    }

    EventQueue eq;
    stats::StatGroup root;
    MemoryController memctrl;
    AxiInterconnect xbar;
    Collector collector;
};

MemRequest
makeReq(PortId port, std::uint64_t id, MemCmd cmd = MemCmd::read)
{
    MemRequest req;
    req.cmd = cmd;
    req.addr = 0x1000 + id * 8;
    req.size = 8;
    req.srcPort = port;
    req.id = id;
    return req;
}

TEST(Interconnect, SingleRequestRoundTrip)
{
    BusFixture bus(2, 10);

    EXPECT_TRUE(bus.xbar.offer(0, makeReq(0, 1)));
    bus.eq.run();

    ASSERT_EQ(bus.collector.responses.size(), 1u);
    EXPECT_EQ(bus.collector.responses[0].id, 1u);
    EXPECT_TRUE(bus.collector.responses[0].ok);
    // One cycle of arbitration + 10 cycles of memory latency. The
    // controller settles the response at the grant: nothing is left
    // to schedule after it.
    EXPECT_EQ(bus.collector.cycles[0], 11u);
    EXPECT_EQ(bus.eq.curCycle(), 1u);
}

TEST(Interconnect, ResponsesRouteBySourcePortNotSlot)
{
    // Global port ids differ from this crossbar's slot indices, as in
    // a cascaded topology: each response must reach the slot its
    // source port offered through.
    EventQueue eq;
    stats::StatGroup root("soc");
    MemoryController memctrl(eq, &root, 3);
    AxiInterconnect xbar(eq, &root, 2);
    Collector slot0(eq, &root, 1);
    Collector slot1(eq, &root, 1);
    xbar.memSide().bind(memctrl.cpuSide());
    slot0.ports[0]->bind(xbar.accelSide(0));
    slot1.ports[0]->bind(xbar.accelSide(1));
    EXPECT_TRUE(xbar.offer(1, makeReq(3, 1)));
    EXPECT_TRUE(xbar.offer(0, makeReq(40, 2)));
    eq.run();
    ASSERT_EQ(slot0.responses.size(), 1u);
    EXPECT_EQ(slot0.responses[0].srcPort, 40u);
    ASSERT_EQ(slot1.responses.size(), 1u);
    EXPECT_EQ(slot1.responses[0].srcPort, 3u);

    // A response for a port that never offered a beat here, inside
    // and beyond the port table, is a routing bug.
    MemResponse stray;
    stray.srcPort = 7;
    EXPECT_THROW(xbar.handleResponse(stray), SimError);
    stray.srcPort = 41;
    EXPECT_THROW(xbar.handleResponse(stray), SimError);
}

TEST(Interconnect, OneBeatPerCycleSerializesMasters)
{
    BusFixture bus(4, 5);

    for (unsigned p = 0; p < 4; ++p)
        EXPECT_TRUE(bus.xbar.offer(p, makeReq(p, p)));
    bus.eq.run();

    ASSERT_EQ(bus.collector.responses.size(), 4u);
    // Grants on cycles 1..4, responses on 6..9.
    EXPECT_EQ(bus.collector.cycles.back(), 9u);
    EXPECT_EQ(bus.xbar.beatsGranted(), 4u);
    // Responses arrive on consecutive cycles (full pipelining).
    for (unsigned i = 0; i + 1 < 4; ++i)
        EXPECT_EQ(bus.collector.cycles[i + 1],
                  bus.collector.cycles[i] + 1);
}

TEST(Interconnect, RoundRobinIsFair)
{
    BusFixture bus(2, 5);

    unsigned issued0 = 0;
    unsigned issued1 = 0;
    for (Cycles c = 0; c < 60 && (issued0 < 8 || issued1 < 8); ++c) {
        if (issued0 < 8 && bus.xbar.canOffer(0))
            bus.xbar.offer(0, makeReq(0, issued0++));
        if (issued1 < 8 && bus.xbar.canOffer(1))
            bus.xbar.offer(1, makeReq(1, issued1++));
        bus.eq.step();
    }
    bus.eq.run();

    ASSERT_EQ(bus.collector.responses.size(), 16u);
    for (unsigned i = 0; i + 1 < 16; ++i) {
        EXPECT_NE(bus.collector.responses[i].srcPort,
                  bus.collector.responses[i + 1].srcPort)
            << "grants did not alternate at " << i;
    }
}

TEST(Interconnect, OfferWhileFullIsRejected)
{
    BusFixture bus(1, 5);

    EXPECT_TRUE(bus.xbar.offer(0, makeReq(0, 1)));
    EXPECT_FALSE(bus.xbar.canOffer(0));
    EXPECT_FALSE(bus.xbar.offer(0, makeReq(0, 2)));
    bus.eq.run();
    EXPECT_EQ(bus.collector.responses.size(), 1u);

    // The slot frees after the grant.
    EXPECT_TRUE(bus.xbar.canOffer(0));
}

TEST(Interconnect, IdlesWhenNoWork)
{
    BusFixture bus(2, 5);
    bus.eq.run();
    EXPECT_EQ(bus.eq.curCycle(), 0u);
    EXPECT_FALSE(bus.xbar.active());
}

TEST(Interconnect, BurstArbitrationKeepsGrantingOneMaster)
{
    BusFixture bus(2, 5, /*burst=*/4);

    // Both masters continuously refill their slots.
    unsigned issued0 = 0;
    unsigned issued1 = 0;
    for (Cycles c = 0; c < 80 && (issued0 < 8 || issued1 < 8); ++c) {
        if (issued0 < 8 && bus.xbar.canOffer(0))
            bus.xbar.offer(0, makeReq(0, issued0++));
        if (issued1 < 8 && bus.xbar.canOffer(1))
            bus.xbar.offer(1, makeReq(1, issued1++));
        bus.eq.step();
    }
    bus.eq.run();

    ASSERT_EQ(bus.collector.responses.size(), 16u);
    // Count how often consecutive grants came from the same master:
    // burst-4 should produce long same-master runs (RR produces none).
    unsigned same_runs = 0;
    for (unsigned i = 0; i + 1 < 16; ++i) {
        same_runs += bus.collector.responses[i].srcPort ==
                     bus.collector.responses[i + 1].srcPort;
    }
    EXPECT_GE(same_runs, 8u);
}

TEST(Interconnect, BurstDoesNotChangeTotalThroughput)
{
    for (const unsigned burst : {1u, 8u}) {
        BusFixture bus(2, 5, burst);
        unsigned issued0 = 0;
        unsigned issued1 = 0;
        for (Cycles c = 0; c < 80 && (issued0 < 8 || issued1 < 8);
             ++c) {
            if (issued0 < 8 && bus.xbar.canOffer(0))
                bus.xbar.offer(0, makeReq(0, issued0++));
            if (issued1 < 8 && bus.xbar.canOffer(1))
                bus.xbar.offer(1, makeReq(1, issued1++));
            bus.eq.step();
        }
        bus.eq.run();
        // 16 beats, one per cycle, + memory latency tail.
        EXPECT_EQ(bus.collector.responses.size(), 16u) << burst;
        EXPECT_LE(bus.collector.cycles.back(), 16u + 5u + 2u) << burst;
    }
}

/** Downstream that can be told to refuse beats (a stalled pipeline);
 *  like every refusing component, it retries the crossbar when it can
 *  take a beat again. */
class StallableSink : public SimObject, public TimingConsumer
{
  public:
    StallableSink(EventQueue &eq, stats::StatGroup *root)
        : SimObject(eq, "sink", root),
          port(*this, "cpu_side", static_cast<TimingConsumer &>(*this))
    {
    }

    bool
    tryAcceptAt(const MemRequest &req, Cycles) override
    {
        if (stalled)
            return false;
        accepted.push_back(req);
        return true;
    }

    /** Take beats again from this cycle on. */
    void
    drain()
    {
        stalled = false;
        port.sendRetry(curCycle());
    }

    ResponsePort port;
    bool stalled = false;
    std::vector<MemRequest> accepted;
};

TEST(Interconnect, BurstBudgetDroppedWhenOwnerGoesIdle)
{
    // Regression: after a grant armed the burst (owner 0, budget 3),
    // arbitration re-entered the burst path even when the owner had no
    // pending beat, dereferencing the empty slot and starving everyone
    // else. The leftover budget must be dropped instead.
    EventQueue eq;
    stats::StatGroup root("soc");
    StallableSink sink(eq, &root);
    AxiInterconnect xbar(eq, &root, 2, /*max_burst=*/4);
    xbar.memSide().bind(sink.port);

    EXPECT_TRUE(xbar.offer(0, makeReq(0, 1)));
    eq.run();
    ASSERT_EQ(sink.accepted.size(), 1u);

    // Owner 0 went idle with burst budget left; master 1 must still be
    // served on the next beat.
    EXPECT_TRUE(xbar.offer(1, makeReq(1, 2)));
    eq.run();
    ASSERT_EQ(sink.accepted.size(), 2u);
    EXPECT_EQ(sink.accepted[1].srcPort, 1u);
    // And the queue drained: a stale burst must not keep the
    // interconnect ticking forever.
    EXPECT_FALSE(xbar.active());
}

TEST(Interconnect, StalledBurstBeatIsRetriedNotLost)
{
    EventQueue eq;
    stats::StatGroup root("soc");
    StallableSink sink(eq, &root);
    AxiInterconnect xbar(eq, &root, 2, /*max_burst=*/2);
    xbar.memSide().bind(sink.port);

    // First beat grants and arms the burst.
    EXPECT_TRUE(xbar.offer(0, makeReq(0, 1)));
    eq.step();
    ASSERT_EQ(sink.accepted.size(), 1u);

    // Second back-to-back beat hits a stalled downstream for a few
    // cycles; the beat (and the burst accounting) must survive the
    // stall and complete once the sink drains.
    sink.stalled = true;
    EXPECT_TRUE(xbar.offer(0, makeReq(0, 2)));
    eq.step();
    eq.step();
    EXPECT_EQ(sink.accepted.size(), 1u);
    EXPECT_FALSE(xbar.canOffer(0)); // beat still buffered, not dropped

    sink.drain();
    eq.run();
    ASSERT_EQ(sink.accepted.size(), 2u);
    EXPECT_EQ(sink.accepted[1].id, 2u);
    EXPECT_FALSE(xbar.active());
}

TEST(Interconnect, NewOwnerStartsItsOwnBurstAfterReset)
{
    // After a dropped burst, the next master to win arbitration gets a
    // full burst of its own, not the stale leftover budget.
    EventQueue eq;
    stats::StatGroup root("soc");
    StallableSink sink(eq, &root);
    AxiInterconnect xbar(eq, &root, 2, /*max_burst=*/3);
    xbar.memSide().bind(sink.port);

    EXPECT_TRUE(xbar.offer(0, makeReq(0, 1)));
    eq.run(); // burst armed for 0, then dropped (0 idle)

    // Master 1 issues three back-to-back beats; with its own burst it
    // keeps the bus even though master 0 re-offers in between.
    EXPECT_TRUE(xbar.offer(1, makeReq(1, 10)));
    eq.step();
    EXPECT_TRUE(xbar.offer(1, makeReq(1, 11)));
    EXPECT_TRUE(xbar.offer(0, makeReq(0, 2)));
    eq.step();
    EXPECT_TRUE(xbar.offer(1, makeReq(1, 12)));
    eq.step();
    eq.run();

    ASSERT_EQ(sink.accepted.size(), 5u);
    EXPECT_EQ(sink.accepted[1].srcPort, 1u);
    EXPECT_EQ(sink.accepted[2].srcPort, 1u);
    EXPECT_EQ(sink.accepted[3].srcPort, 1u);
    EXPECT_EQ(sink.accepted[4].srcPort, 0u);
}

TEST(MemCtrl, PipelinedResponsesPreserveOrderAndLatency)
{
    EventQueue eq;
    stats::StatGroup root("soc");
    Collector collector(eq, &root, 1);
    MemoryController memctrl(eq, &root, 20);
    collector.ports[0]->bind(memctrl.cpuSide());

    std::vector<std::unique_ptr<LambdaEvent>> events;
    for (Cycles c = 1; c <= 5; ++c) {
        events.push_back(std::make_unique<LambdaEvent>([&memctrl, c] {
            MemRequest req = makeReq(0, c);
            EXPECT_TRUE(memctrl.tryAcceptAt(req, c));
        }));
        eq.schedule(events.back().get(), c);
    }
    eq.run();

    ASSERT_EQ(collector.responses.size(), 5u);
    for (unsigned i = 0; i < 5; ++i) {
        EXPECT_EQ(collector.responses[i].id, i + 1);
        EXPECT_EQ(collector.cycles[i], i + 1 + 20);
    }
}

TEST(MemCtrl, SecondAcceptSameCycleRejected)
{
    EventQueue eq;
    stats::StatGroup root("soc");
    Collector collector(eq, &root, 1);
    MemoryController memctrl(eq, &root, 5);
    collector.ports[0]->bind(memctrl.cpuSide());

    LambdaEvent ev([&] {
        EXPECT_TRUE(memctrl.tryAcceptAt(makeReq(0, 1), 1));
        EXPECT_FALSE(memctrl.tryAcceptAt(makeReq(0, 2), 1));
    });
    eq.schedule(&ev, 1);
    eq.run();
    EXPECT_EQ(memctrl.requestsServed(), 1u);
}

TEST(MemCtrl, WriteAndReadBeatsCounted)
{
    EventQueue eq;
    stats::StatGroup root("soc");
    Collector collector(eq, &root, 1);
    MemoryController memctrl(eq, &root, 5);
    collector.ports[0]->bind(memctrl.cpuSide());

    std::vector<std::unique_ptr<LambdaEvent>> events;
    for (Cycles c = 1; c <= 4; ++c) {
        const MemCmd cmd = (c % 2) ? MemCmd::read : MemCmd::write;
        events.push_back(std::make_unique<LambdaEvent>(
            [&memctrl, c, cmd] {
                memctrl.tryAcceptAt(makeReq(0, c, cmd), c);
            }));
        eq.schedule(events.back().get(), c);
    }
    eq.run();
    EXPECT_EQ(memctrl.requestsServed(), 4u);
}

} // namespace
} // namespace capcheck
