/**
 * @file
 * Unit tests for the mesh NoC: routing, latency, contention, and the
 * flit-crossing accounting behind Figure 5d.
 */

#include <gtest/gtest.h>

#include "noc/mesh.hh"

namespace stashsim
{
namespace
{

MeshParams
defaultParams()
{
    MeshParams p;
    p.width = 4;
    p.height = 4;
    p.routerCycles = 2;
    p.linkCycles = 1;
    return p;
}

TEST(MeshTest, HopCountIsManhattanDistance)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    EXPECT_EQ(mesh.hopCount(0, 0), 0u);
    EXPECT_EQ(mesh.hopCount(0, 3), 3u);
    EXPECT_EQ(mesh.hopCount(0, 15), 6u);
    EXPECT_EQ(mesh.hopCount(5, 6), 1u);
    EXPECT_EQ(mesh.hopCount(12, 3), 6u);
    EXPECT_EQ(mesh.hopCount(3, 12), 6u);
}

TEST(MeshTest, FlitsForRoundsUp)
{
    EXPECT_EQ(Mesh::flitsFor(0), 1u);
    EXPECT_EQ(Mesh::flitsFor(1), 1u);
    EXPECT_EQ(Mesh::flitsFor(16), 1u);
    EXPECT_EQ(Mesh::flitsFor(17), 2u);
    EXPECT_EQ(Mesh::flitsFor(72), 5u);
}

TEST(MeshTest, DeliversWithPerHopLatency)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    Tick delivered = 0;
    // 0 -> 3: 3 hops.  Each hop: 2-cycle router + 1-cycle link
    // serialization for one flit, plus ejection (router + local).
    mesh.send(0, 3, 8, MsgClass::Read,
              [&]() { delivered = eq.curTick(); });
    eq.run();
    const Tick cycles = delivered / gpuClockPeriod;
    EXPECT_EQ(cycles, 3 * (2 + 1) + (2 + 1));
}

TEST(MeshTest, SameNodeDeliveryStillCostsEjection)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    Tick delivered = 0;
    mesh.send(7, 7, 8, MsgClass::Read,
              [&]() { delivered = eq.curTick(); });
    eq.run();
    EXPECT_EQ(delivered / gpuClockPeriod, 3u);
}

TEST(MeshTest, LargerPayloadsSerializeLonger)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    Tick t_small = 0, t_big = 0;
    {
        Mesh m1(eq, defaultParams());
        m1.send(0, 1, 8, MsgClass::Read,
                [&]() { t_small = eq.curTick(); });
        eq.run();
    }
    eq.reset();
    {
        Mesh m2(eq, defaultParams());
        m2.send(0, 1, 72, MsgClass::Read,
                [&]() { t_big = eq.curTick(); });
        eq.run();
    }
    EXPECT_GT(t_big, t_small);
    // 5 flits instead of 1: with a 4-flit-wide link, one extra
    // serialization cycle per traversed link (2 links: net + eject).
    EXPECT_EQ((t_big - t_small) / gpuClockPeriod, 2u * 1u);
}

TEST(MeshTest, ContentionDelaysSecondPacket)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    Tick first = 0, second = 0;
    mesh.send(0, 1, 64, MsgClass::Read,
              [&]() { first = eq.curTick(); });
    mesh.send(0, 1, 64, MsgClass::Read,
              [&]() { second = eq.curTick(); });
    eq.run();
    EXPECT_GT(second, first);
}

TEST(MeshTest, DisjointPathsDoNotContend)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    Tick a = 0, b = 0;
    mesh.send(0, 1, 64, MsgClass::Read, [&]() { a = eq.curTick(); });
    mesh.send(8, 9, 64, MsgClass::Read, [&]() { b = eq.curTick(); });
    eq.run();
    EXPECT_EQ(a, b);
}

TEST(MeshTest, CountsFlitHopsPerClass)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    // 2 flits (17 bytes) across 3 links.
    mesh.send(0, 3, 17, MsgClass::Writeback, []() {});
    eq.run();
    EXPECT_EQ(mesh.stats().flitHops[unsigned(MsgClass::Writeback)],
              6u);
    EXPECT_EQ(mesh.stats().flitHops[unsigned(MsgClass::Read)], 0u);
    EXPECT_EQ(mesh.stats().packets, 1u);
}

TEST(MeshTest, SameNodeTrafficCrossesNoLinks)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    mesh.send(5, 5, 64, MsgClass::Read, []() {});
    eq.run();
    EXPECT_EQ(mesh.stats().totalFlitHops(), 0u);
    EXPECT_EQ(mesh.stats().packets, 1u);
}

/** Property: latency grows monotonically with hop distance. */
TEST(MeshTest, PropertyLatencyMonotonicInDistance)
{
    Tick prev = 0;
    for (NodeId dst : {NodeId(0), NodeId(1), NodeId(2), NodeId(3),
                       NodeId(7), NodeId(11), NodeId(15)}) {
        EventQueue eq;
        Mesh mesh(eq, defaultParams());
        Tick t = 0;
        mesh.send(0, dst, 8, MsgClass::Read,
                  [&]() { t = eq.curTick(); });
        eq.run();
        EXPECT_GE(t, prev);
        prev = t;
    }
}

/** The Table 2 L2 latency range: 29-61 cycles total.  Our network
 *  contributes hops x 3 cycles each way plus the 23-cycle bank, so
 *  the min (same node) and max (6 hops) cases must bracket it. */
TEST(MeshTest, Table2L2LatencyBracket)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    const Cycles bank = 23;
    const Cycles min_total = 2 * 3 + bank;         // same-node
    const Cycles max_total = 2 * (6 + 1) * 3 + bank; // corner-corner
    EXPECT_GE(min_total, 29u - 2);
    EXPECT_LE(max_total, 61u + 6);
}

TEST(RouterTest, ReservationsSerializeOnOneLink)
{
    Router r;
    EXPECT_EQ(r.reserve(Direction::East, 100, 20), 120u);
    EXPECT_EQ(r.reserve(Direction::East, 100, 20), 140u);
    EXPECT_EQ(r.reserve(Direction::West, 100, 20), 120u);
    r.reset();
    EXPECT_EQ(r.reserve(Direction::East, 10, 5), 15u);
}


// ---------------------------------------------------------------
// Router channel reservations (the contention primitive)
// ---------------------------------------------------------------

TEST(RouterTest, ReservationEndTickMath)
{
    Router r;
    // Free channel: the reservation starts at `earliest` and the
    // returned end tick is earliest + duration.
    EXPECT_EQ(r.reserve(Direction::East, 100, 10), 110u);
    EXPECT_EQ(r.busyUntil(Direction::East), 110u);
    // An overlapping request queues behind the tail: it starts at
    // busyUntil, not at its own earliest.
    EXPECT_EQ(r.reserve(Direction::East, 105, 10), 120u);
    EXPECT_EQ(r.busyUntil(Direction::East), 120u);
    // A request after the channel frees pays no wait.
    EXPECT_EQ(r.reserve(Direction::East, 300, 5), 305u);
}

TEST(RouterTest, BackToBackReservationsSerializeExactly)
{
    Router r;
    // Five identical packets requested at the same tick occupy the
    // channel back to back: k-th ends at earliest + (k+1) * duration.
    for (unsigned k = 0; k < 5; ++k) {
        EXPECT_EQ(r.reserve(Direction::Local, 50, 7),
                  50u + (k + 1) * 7u);
    }
}

TEST(RouterTest, DirectionsAreIndependentChannels)
{
    Router r;
    r.reserve(Direction::East, 100, 50);
    // The other output links of the same router are unaffected.
    EXPECT_EQ(r.reserve(Direction::West, 100, 10), 110u);
    EXPECT_EQ(r.reserve(Direction::North, 100, 10), 110u);
    EXPECT_EQ(r.busyUntil(Direction::South), 0u);
    r.reset();
    EXPECT_EQ(r.busyUntil(Direction::East), 0u);
}

// ---------------------------------------------------------------
// Deferred routing (the Fabric's per-tick flush path)
// ---------------------------------------------------------------

TEST(MeshTest, MinLatencyTicksIsOneHopWithoutContention)
{
    const MeshParams p = defaultParams();
    EventQueue eq;
    Mesh mesh(eq, p);
    // The cheapest possible delivery (same node, 1 flit) still pays
    // one hop: routerCycles + linkCycles, in GPU-clock ticks.
    const Tick arrival =
        mesh.route(7, 7, 8, MsgClass::Read, /*send_tick=*/1000);
    EXPECT_GE(arrival,
              1000 + Tick(p.routerCycles + p.linkCycles) *
                         gpuClockPeriod);
}

TEST(MeshTest, RouteMatchesSendTimingAndStats)
{
    // route() (used by the Fabric's canonical flush) must charge the
    // same latency, reservations, and flit-hop stats as send().
    EventQueue eqA;
    Mesh meshA(eqA, defaultParams());
    Tick sendArrival = 0;
    meshA.send(0, 3, 17, MsgClass::Writeback,
               [&]() { sendArrival = eqA.curTick(); });
    eqA.run();

    EventQueue eqB;
    Mesh meshB(eqB, defaultParams());
    const Tick routeArrival =
        meshB.route(0, 3, 17, MsgClass::Writeback, 0);

    EXPECT_EQ(routeArrival, sendArrival);
    EXPECT_EQ(meshB.stats().flitHops[unsigned(MsgClass::Writeback)],
              meshA.stats().flitHops[unsigned(MsgClass::Writeback)]);
    EXPECT_EQ(meshB.stats().packets, meshA.stats().packets);
}

TEST(MeshTest, RouteSeesContentionAcrossCalls)
{
    EventQueue eq;
    Mesh mesh(eq, defaultParams());
    const Tick first = mesh.route(0, 1, 64, MsgClass::Read, 0);
    const Tick second = mesh.route(0, 1, 64, MsgClass::Read, 0);
    // Same link at the same tick: the second packet queues behind
    // the first's channel reservation.
    EXPECT_GT(second, first);
}

} // namespace
} // namespace stashsim
