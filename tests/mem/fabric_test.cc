/**
 * @file
 * Unit tests for the Fabric's (node, unit) addressing, requester
 * return routing, LLC interleaving, in-flight accounting, and the
 * per-tick flush that routes staged sends in source-node order.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/fabric.hh"

namespace stashsim
{
namespace
{

/** A MemObject that records every message it receives. */
class Sink : public MemObject
{
  public:
    void receive(const Msg &msg) override { received.push_back(msg); }

    std::vector<Msg> received;
};

MeshParams
defaultParams()
{
    MeshParams p;
    p.width = 4;
    p.height = 4;
    return p;
}

Msg
makeMsg(MsgType type, PhysAddr line_pa = 0x1000)
{
    Msg m;
    m.type = type;
    m.linePA = line_pa;
    m.mask = 0x3;
    return m;
}

TEST(FabricTest, RoutesToTheUnitAtTheNode)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    Fabric fabric(mesh);

    // Two different units share node 3; a third sink lives elsewhere.
    Sink llcAt3, l1At3, llcAt7;
    fabric.registerObject(3, Unit::Llc, &llcAt3);
    fabric.registerObject(3, Unit::L1, &l1At3);
    fabric.registerObject(7, Unit::Llc, &llcAt7);

    fabric.send(0, 3, Unit::Llc, makeMsg(MsgType::ReadReq));
    fabric.send(0, 3, Unit::L1, makeMsg(MsgType::InvReq));
    eq.run();

    ASSERT_EQ(llcAt3.received.size(), 1u);
    EXPECT_EQ(llcAt3.received[0].type, MsgType::ReadReq);
    ASSERT_EQ(l1At3.received.size(), 1u);
    EXPECT_EQ(l1At3.received[0].type, MsgType::InvReq);
    EXPECT_TRUE(llcAt7.received.empty());
}

TEST(FabricTest, SendToRequesterUsesTheCoreTable)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    Fabric fabric(mesh);

    // Core 2 lives at node 5; its stash — not its L1 — asked.
    Sink stashAt5, l1At5;
    fabric.registerObject(5, Unit::Stash, &stashAt5);
    fabric.registerObject(5, Unit::L1, &l1At5);
    fabric.registerCore(2, 5);
    EXPECT_EQ(fabric.nodeOfCore(2), 5u);

    Msg resp = makeMsg(MsgType::ReadResp);
    resp.requester = 2;
    resp.requesterUnit = Unit::Stash;
    fabric.sendToRequester(/*src=*/9, resp);
    eq.run();

    ASSERT_EQ(stashAt5.received.size(), 1u);
    EXPECT_EQ(stashAt5.received[0].type, MsgType::ReadResp);
    EXPECT_TRUE(l1At5.received.empty());
}

TEST(FabricTest, LlcBanksInterleaveByLine)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    Fabric fabric(mesh);

    // Line-granularity interleaving: bank = (pa / 64) % 16.
    EXPECT_EQ(fabric.nodeOfLlc(0), 0u);
    EXPECT_EQ(fabric.nodeOfLlc(lineBytes), 1u);
    EXPECT_EQ(fabric.nodeOfLlc(15 * lineBytes), 15u);
    EXPECT_EQ(fabric.nodeOfLlc(16 * lineBytes), 0u);
    // Same line, different word: same bank.
    EXPECT_EQ(fabric.nodeOfLlc(16 * lineBytes + 4),
              fabric.nodeOfLlc(16 * lineBytes));
}

TEST(FabricTest, TracksInFlightPerType)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    Fabric fabric(mesh);

    Sink sink;
    fabric.registerObject(1, Unit::Llc, &sink);

    fabric.send(0, 1, Unit::Llc, makeMsg(MsgType::ReadReq));
    fabric.send(0, 1, Unit::Llc, makeMsg(MsgType::WbReq));
    EXPECT_EQ(fabric.inFlight(MsgType::ReadReq), 1u);
    EXPECT_EQ(fabric.inFlight(MsgType::WbReq), 1u);
    EXPECT_EQ(fabric.totalInFlight(), 2u);

    eq.run();
    EXPECT_EQ(fabric.totalInFlight(), 0u);
    EXPECT_EQ(sink.received.size(), 2u);
}

/**
 * Sends are staged per source node and an internal per-tick flush
 * event routes them in (src node, send order) order.  Deliveries must
 * still arrive, and in src-major order for same-tick sends.
 */
TEST(FabricTest, BoundSerialModeFlushesStagedSendsAutomatically)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    Fabric fabric(mesh);

    Sink sink;
    fabric.registerObject(0, Unit::Llc, &sink);

    // Stage two same-tick sends from different sources, higher source
    // id first: the flush must route node 2's before node 5's
    // regardless of send order.  Equal path lengths, so arrival
    // order follows routing (ejection-channel reservation) order.
    eq.schedule(100, [&] {
        fabric.send(5, 0, Unit::Llc, makeMsg(MsgType::WbReq, 0x100));
        fabric.send(2, 0, Unit::Llc, makeMsg(MsgType::WbReq, 0x200));
    });
    eq.run();

    ASSERT_EQ(sink.received.size(), 2u);
    EXPECT_EQ(sink.received[0].linePA, 0x200u);
    EXPECT_EQ(sink.received[1].linePA, 0x100u);
    EXPECT_EQ(fabric.totalInFlight(), 0u);
}

/** Same-tick staging arms exactly one internal flush event. */
TEST(FabricTest, ArmsOneFlushEventPerTick)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    Fabric fabric(mesh);

    Sink sink;
    fabric.registerObject(3, Unit::Llc, &sink);

    eq.schedule(40, [&] {
        for (int i = 0; i < 4; ++i)
            fabric.send(0, 3, Unit::Llc, makeMsg(MsgType::ReadReq));
    });
    // run() counts internal events; eventsExecuted() does not.  The
    // difference is the flush events: one per staging tick, plus one
    // per delivery tick is NOT added (deliveries are ordinary events).
    const std::uint64_t ran = eq.run();
    EXPECT_EQ(ran, eq.eventsExecuted() + 1);
    EXPECT_EQ(sink.received.size(), 4u);
}

/**
 * Flushes run at the staging tick, so every entry shares one tick:
 * one flush per staging tick, routing sources in node order.
 */
TEST(FabricTest, SerialFlushesTakeTheSortFreeFastPaths)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    Fabric fabric(mesh);

    Sink sink;
    fabric.registerObject(0, Unit::Llc, &sink);

    // Tick 100: two sources, one flush.
    eq.schedule(100, [&] {
        fabric.send(5, 0, Unit::Llc, makeMsg(MsgType::WbReq, 0x100));
        fabric.send(2, 0, Unit::Llc, makeMsg(MsgType::WbReq, 0x200));
    });
    // Tick 900: one source, a second flush.
    eq.schedule(900, [&] {
        fabric.send(7, 0, Unit::Llc, makeMsg(MsgType::ReadReq));
    });
    eq.run();

    ASSERT_EQ(sink.received.size(), 3u);
    EXPECT_EQ(sink.received[0].linePA, 0x200u); // src 2 before src 5
    EXPECT_EQ(sink.received[1].linePA, 0x100u);
    EXPECT_EQ(fabric.flushCount(), 2u);
}

} // namespace
} // namespace stashsim
