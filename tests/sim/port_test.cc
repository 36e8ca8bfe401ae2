/**
 * @file
 * Tests for the typed port/binding layer: forwarding semantics, the
 * structured bind-time diagnostics (unbound use, double bind, role and
 * protocol mismatches — each naming the offending endpoints), the
 * automatic unbind on destruction, and the ComponentRegistry's dotted
 * "component.port" resolution.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/clocked.hh"
#include "sim/port.hh"

namespace capcheck
{
namespace
{

/** Producer: owns a request port, records responses. */
class Producer : public SimObject, public ResponseHandler
{
  public:
    Producer(EventQueue &eq, stats::StatGroup *root,
             std::string name = "producer")
        : SimObject(eq, std::move(name), root),
          port(*this, "mem_side", static_cast<ResponseHandler &>(*this))
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

/** Consumer: owns a response port, echoes every request back. */
class Consumer : public SimObject, public TimingConsumer
{
  public:
    Consumer(EventQueue &eq, stats::StatGroup *root,
             std::string name = "consumer")
        : SimObject(eq, std::move(name), root),
          port(*this, "cpu_side", static_cast<TimingConsumer &>(*this))
    {
    }

    bool
    tryAcceptAt(const MemRequest &req, Cycles) override
    {
        if (reject_all)
            return false;
        accepted.push_back(req);
        MemResponse resp;
        resp.id = req.id;
        resp.srcPort = req.srcPort;
        resp.ok = true;
        port.sendResponse(resp);
        return true;
    }

    ResponsePort port;
    bool reject_all = false;
    std::vector<MemRequest> accepted;
};

MemRequest
makeReq(std::uint64_t id)
{
    MemRequest req;
    req.cmd = MemCmd::read;
    req.addr = 0x1000;
    req.size = 8;
    req.id = id;
    return req;
}

class PortFixture : public ::testing::Test
{
  protected:
    PortFixture() : root("t"), producer(eq, &root), consumer(eq, &root)
    {
    }

    EventQueue eq;
    stats::StatGroup root;
    Producer producer;
    Consumer consumer;
};

TEST_F(PortFixture, BoundPairForwardsRequestsAndResponses)
{
    producer.port.bind(consumer.port);
    ASSERT_TRUE(producer.port.bound());
    ASSERT_TRUE(consumer.port.bound());
    EXPECT_EQ(producer.port.peerBase(), &consumer.port);

    EXPECT_TRUE(producer.port.trySendAt(makeReq(42), 0));

    // Same-frame forwarding: the request landed and the echo response
    // came back before trySendAt returned.
    ASSERT_EQ(consumer.accepted.size(), 1u);
    EXPECT_EQ(consumer.accepted[0].id, 42u);
    ASSERT_EQ(producer.responses.size(), 1u);
    EXPECT_EQ(producer.responses[0].id, 42u);
}

TEST_F(PortFixture, BackpressurePropagatesThroughThePort)
{
    producer.port.bind(consumer.port);
    consumer.reject_all = true;
    EXPECT_FALSE(producer.port.trySendAt(makeReq(1), 0));
    EXPECT_TRUE(consumer.accepted.empty());
}

TEST_F(PortFixture, UnboundSendIsAStructuredError)
{
    try {
        producer.port.trySendAt(makeReq(1), 0);
        FAIL() << "expected PortError";
    } catch (const PortError &e) {
        EXPECT_EQ(e.kind(), PortError::Kind::unbound);
        EXPECT_EQ(e.endpointA(), "producer.mem_side");
        EXPECT_NE(std::string(e.what()).find("producer.mem_side"),
                  std::string::npos);
    }
}

TEST_F(PortFixture, DoubleBindNamesBothEndpoints)
{
    producer.port.bind(consumer.port);
    Producer other(eq, &root, "other");
    try {
        other.port.bind(consumer.port);
        FAIL() << "expected PortError";
    } catch (const PortError &e) {
        EXPECT_EQ(e.kind(), PortError::Kind::doubleBind);
        const std::string what = e.what();
        EXPECT_NE(what.find("consumer.cpu_side"), std::string::npos);
        EXPECT_NE(what.find("other.mem_side"), std::string::npos);
    }
}

TEST_F(PortFixture, RoleMismatchIsRejected)
{
    Producer other(eq, &root, "other");
    try {
        bindPorts(producer.port, other.port);
        FAIL() << "expected PortError";
    } catch (const PortError &e) {
        EXPECT_EQ(e.kind(), PortError::Kind::roleMismatch);
        const std::string what = e.what();
        EXPECT_NE(what.find("producer.mem_side"), std::string::npos);
        EXPECT_NE(what.find("other.mem_side"), std::string::npos);
    }
}

TEST_F(PortFixture, SelfBindIsRejected)
{
    EXPECT_THROW(bindPorts(producer.port, producer.port), PortError);
}

TEST_F(PortFixture, ProtocolMismatchIsRejected)
{
    /** A response port speaking a different packet protocol. */
    class IrqSink : public SimObject, public TimingConsumer
    {
      public:
        IrqSink(EventQueue &eq, stats::StatGroup *root)
            : SimObject(eq, "irqsink", root),
              port(*this, "irq_side",
                   static_cast<TimingConsumer &>(*this), "irq")
        {
        }

        bool tryAcceptAt(const MemRequest &, Cycles) override
        {
            return true;
        }

        ResponsePort port;
    };

    IrqSink sink(eq, &root);
    try {
        bindPorts(producer.port, sink.port);
        FAIL() << "expected PortError";
    } catch (const PortError &e) {
        EXPECT_EQ(e.kind(), PortError::Kind::protocolMismatch);
    }
}

TEST_F(PortFixture, UnbindSeversBothSidesAndIsRebindable)
{
    producer.port.bind(consumer.port);
    producer.port.unbind();
    EXPECT_FALSE(producer.port.bound());
    EXPECT_FALSE(consumer.port.bound());

    // Both endpoints are free again.
    producer.port.bind(consumer.port);
    EXPECT_TRUE(producer.port.trySendAt(makeReq(7), 0));
}

TEST_F(PortFixture, DestructionUnbindsThePeer)
{
    {
        Producer ephemeral(eq, &root, "ephemeral");
        ephemeral.port.bind(consumer.port);
        EXPECT_TRUE(consumer.port.bound());
    }
    // The consumer must not be left with a dangling peer (trace
    // players die at the end of every wave).
    EXPECT_FALSE(consumer.port.bound());
    producer.port.bind(consumer.port);
    EXPECT_TRUE(producer.port.trySendAt(makeReq(8), 0));
}

TEST_F(PortFixture, DuplicatePortNameOnOneOwnerIsRejected)
{
    EXPECT_THROW(
        RequestPort(producer, "mem_side",
                    static_cast<ResponseHandler &>(producer)),
        PortError);
}

TEST_F(PortFixture, SimObjectResolvesPortsByLocalName)
{
    EXPECT_EQ(producer.findPort("mem_side"), &producer.port);
    EXPECT_EQ(producer.findPort("nope"), nullptr);
    ASSERT_EQ(producer.ports().size(), 1u);
    EXPECT_EQ(producer.ports()[0]->fullName(), "producer.mem_side");
}

TEST_F(PortFixture, RegistryResolvesDottedNamesAndBinds)
{
    ComponentRegistry registry;
    registry.add(producer);
    registry.add(consumer);

    EXPECT_EQ(registry.find("producer"), &producer);
    EXPECT_EQ(registry.find("absent"), nullptr);
    EXPECT_EQ(&registry.port("producer.mem_side"), &producer.port);

    registry.bind("producer.mem_side", "consumer.cpu_side");
    EXPECT_TRUE(producer.port.trySendAt(makeReq(3), 0));
    ASSERT_EQ(consumer.accepted.size(), 1u);

    const std::vector<std::string> names = registry.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "producer");
    EXPECT_EQ(names[1], "consumer");
}

TEST_F(PortFixture, RegistryUnknownNamesListTheKnownOnes)
{
    ComponentRegistry registry;
    registry.add(producer);

    try {
        registry.port("ghost.mem_side");
        FAIL() << "expected PortError";
    } catch (const PortError &e) {
        EXPECT_EQ(e.kind(), PortError::Kind::unknownComponent);
        // The message lists what *does* exist.
        EXPECT_NE(std::string(e.what()).find("producer"),
                  std::string::npos);
    }

    try {
        registry.port("producer.ghost_side");
        FAIL() << "expected PortError";
    } catch (const PortError &e) {
        EXPECT_EQ(e.kind(), PortError::Kind::unknownPort);
        EXPECT_NE(std::string(e.what()).find("mem_side"),
                  std::string::npos);
    }
}

TEST_F(PortFixture, RegistryRejectsDuplicateComponentNames)
{
    ComponentRegistry registry;
    registry.add(producer);
    Producer twin(eq, &root, "producer");
    try {
        registry.add(twin);
        FAIL() << "expected PortError";
    } catch (const PortError &e) {
        EXPECT_EQ(e.kind(), PortError::Kind::duplicateName);
    }
}

TEST(PortErrorKind, EveryKindHasAName)
{
    for (const auto kind :
         {PortError::Kind::unbound, PortError::Kind::doubleBind,
          PortError::Kind::roleMismatch,
          PortError::Kind::protocolMismatch, PortError::Kind::selfBind,
          PortError::Kind::duplicateName,
          PortError::Kind::unknownComponent,
          PortError::Kind::unknownPort}) {
        EXPECT_NE(std::string(portErrorKindName(kind)), "");
    }
}

} // namespace
} // namespace capcheck
