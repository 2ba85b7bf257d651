/**
 * @file
 * 2D mesh interconnect with XY (dimension-order) routing.
 *
 * Models the paper's Garnet 4x4 mesh (Table 2): a GPU CU or CPU core
 * plus an L2 bank at each node.  The mesh transports opaque payloads:
 * a sender provides the destination, the payload size in bytes, a
 * message class for traffic accounting (Figure 5d splits traffic into
 * read/write/writeback flit crossings), and a delivery callback.
 *
 * Latency model per packet:
 *   - per-hop router pipeline delay (routerCycles),
 *   - per-link traversal of one cycle per flit (serialization), with
 *     contention via per-link channel reservations (see Router),
 *   - flit-crossing counts accumulate `flits x links` per packet.
 */

#ifndef STASHSIM_NOC_MESH_HH
#define STASHSIM_NOC_MESH_HH

#include <functional>
#include <vector>

#include "noc/router.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace stashsim
{

class SnapshotWriter;
class SnapshotReader;

/** Mesh timing parameters, in uncore (GPU-domain) cycles. */
struct MeshParams
{
    unsigned width = 4;
    unsigned height = 4;
    Cycles routerCycles = 2; //!< router pipeline latency per hop
    Cycles linkCycles = 1;   //!< link traversal per flit group
    /**
     * Link width in flits per cycle.  GPU-class NoCs move multiple
     * 16 B flits per cycle; traffic *counts* (Figure 5d) are still
     * per flit crossing, this only affects serialization time.
     */
    unsigned flitsPerCycle = 4;
};

/**
 * The mesh network.  Node ids are row-major: node = y * width + x.
 */
class Mesh
{
  public:
    using DeliverFn = std::function<void()>;

    Mesh(EventQueue &eq, const MeshParams &p);

    /** The queue deliveries are scheduled on. */
    EventQueue &eventQueue() const { return eq; }

    unsigned numNodes() const { return params.width * params.height; }

    /** Manhattan hop distance between two nodes. */
    unsigned hopCount(NodeId src, NodeId dst) const;

    /** Number of flits a payload of @p bytes occupies (min 1). */
    static unsigned
    flitsFor(unsigned bytes)
    {
        return bytes == 0 ? 1 : (bytes + flitBytes - 1) / flitBytes;
    }

    /**
     * Sends a packet.  @p on_deliver runs at the arrival tick.
     * Traffic counters are charged immediately.
     */
    void send(NodeId src, NodeId dst, unsigned payload_bytes,
              MsgClass cls, DeliverFn on_deliver);

    /**
     * Times a packet injected at @p send_tick: walks the XY route,
     * reserves every traversed channel, charges traffic counters, and
     * returns the arrival tick (at least one router pipeline plus one
     * flit group after @p send_tick) without scheduling anything.
     * The Fabric's per-tick flush uses this to route its staged
     * packets in source-node order and schedule the deliveries
     * itself.
     */
    Tick route(NodeId src, NodeId dst, unsigned payload_bytes,
               MsgClass cls, Tick send_tick);

    const NocStats &stats() const { return _stats; }

    const MeshParams &meshParams() const { return params; }

    /** Per-test access to routers. */
    Router &router(NodeId n) { return routers.at(n); }
    const Router &router(NodeId n) const { return routers.at(n); }

    /** Serializes traffic counters + per-router channel reservations. */
    void snapshot(SnapshotWriter &w) const;

    /**
     * Restores counters and reservations from a checkpoint, after the
     * event queue's clock.  A reservation past the queue's curTick is
     * a SnapshotError.
     */
    void restore(SnapshotReader &r);

  private:
    unsigned nodeX(NodeId n) const { return n % params.width; }
    unsigned nodeY(NodeId n) const { return n / params.width; }

    EventQueue &eq;
    MeshParams params;
    std::vector<Router> routers;
    NocStats _stats;
};

} // namespace stashsim

#endif // STASHSIM_NOC_MESH_HH
