#include "noc/mesh.hh"

#include <cstdlib>

#include "sim/log.hh"
#include "snapshot/snapshot.hh"

namespace stashsim
{

Mesh::Mesh(EventQueue &eq, const MeshParams &p)
    : eq(eq), params(p), routers(p.width * p.height)
{
    sim_assert(p.width >= 1 && p.height >= 1);
}

unsigned
Mesh::hopCount(NodeId src, NodeId dst) const
{
    int dx = int(nodeX(dst)) - int(nodeX(src));
    int dy = int(nodeY(dst)) - int(nodeY(src));
    return unsigned(std::abs(dx) + std::abs(dy));
}

void
Mesh::send(NodeId src, NodeId dst, unsigned payload_bytes, MsgClass cls,
           DeliverFn on_deliver)
{
    const Tick t = route(src, dst, payload_bytes, cls, eq.curTick());
    eq.schedule(t, std::move(on_deliver), EventQueue::PriDelivery);
}

Tick
Mesh::route(NodeId src, NodeId dst, unsigned payload_bytes, MsgClass cls,
            Tick send_tick)
{
    sim_assert(src < numNodes() && dst < numNodes());

    const unsigned flits = flitsFor(payload_bytes);
    const Tick router_delay = params.routerCycles * gpuClockPeriod;
    const unsigned flit_groups =
        (flits + params.flitsPerCycle - 1) / params.flitsPerCycle;
    const Tick serial =
        Tick(flit_groups) * params.linkCycles * gpuClockPeriod;

    // Walk the XY route: move in X first, then in Y.  Each traversed
    // link is reserved for this packet's serialization time; the
    // packet leaves a router after its pipeline delay plus any time
    // spent waiting for the output channel.
    Tick t = send_tick;
    unsigned x = nodeX(src), y = nodeY(src);
    const unsigned tx = nodeX(dst), ty = nodeY(dst);
    unsigned links = 0;

    while (x != tx || y != ty) {
        NodeId cur = NodeId(y * params.width + x);
        Direction dir;
        if (x < tx) {
            dir = Direction::East;
            ++x;
        } else if (x > tx) {
            dir = Direction::West;
            --x;
        } else if (y < ty) {
            dir = Direction::North;
            ++y;
        } else {
            dir = Direction::South;
            --y;
        }
        t += router_delay;
        t = routers[cur].reserve(dir, t, serial);
        ++links;
    }

    // Ejection at the destination node (local port).  Even a
    // same-node message pays one router traversal.
    t += router_delay;
    t = routers[dst].reserve(Direction::Local, t, serial);

    _stats.packets += 1;
    _stats.flitHops[unsigned(cls)] += Counter(flits) * links;

    return t;
}

void
Mesh::snapshot(SnapshotWriter &w) const
{
    writeStats(w, _stats);
    w.u32(std::uint32_t(routers.size()));
    for (const Router &rt : routers)
        for (unsigned d = 0; d < unsigned(Direction::NumDirections); ++d)
            w.u64(rt.busyUntil(Direction(d)));
}

void
Mesh::restore(SnapshotReader &r)
{
    readStats(r, _stats);
    r.require(r.u32() == routers.size(), "router count mismatch");
    for (Router &rt : routers) {
        for (unsigned d = 0; d < unsigned(Direction::NumDirections); ++d) {
            // At a drain point every packet has arrived, so no link
            // is reserved past the restored engine tick.
            const Tick busy = r.u64();
            r.require(busy <= eq.curTick(),
                      "router link reserved past the engine tick");
            rt.setBusyUntil(Direction(d), busy);
        }
    }
}

} // namespace stashsim
