/**
 * @file
 * Fabric: routes coherence messages between memory objects over the
 * mesh.
 *
 * Every coherence participant (L1 cache, stash, LLC bank, DMA engine)
 * implements MemObject and registers itself under a (node, unit)
 * address.  The Fabric computes message sizes and traffic classes,
 * hands packets to the Mesh for timing, and delivers them to the
 * destination object's receive() method.  It also owns the address
 * interleaving of the NUCA LLC (line-granularity, bank = line % 16,
 * one bank per node, per Table 2).
 *
 * Sends are staged per source node and routed once per tick, by a
 * PriInternal flush event, in source-node order (each node's
 * messages in send order).  Routing order decides which packet gets
 * a contended channel first, so this order is part of the
 * simulator's deterministic results (DESIGN.md §10).
 */

#ifndef STASHSIM_MEM_FABRIC_HH
#define STASHSIM_MEM_FABRIC_HH

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "mem/coherence/msg.hh"
#include "noc/mesh.hh"
#include "sim/types.hh"

namespace stashsim
{

class FaultInjector;

/**
 * Interface for anything that can receive coherence messages.
 */
class MemObject
{
  public:
    virtual ~MemObject() = default;

    /** Handles an arriving message. */
    virtual void receive(const Msg &msg) = 0;
};

/**
 * Message router: (node, unit) addressing on top of the Mesh.
 */
class Fabric
{
  public:
    explicit Fabric(Mesh &mesh)
        : mesh(mesh), eq(mesh.eventQueue()), objects(mesh.numNodes()),
          staged(mesh.numNodes())
    {
    }

    /** Registers @p obj as the @p unit at @p node. */
    void registerObject(NodeId node, Unit unit, MemObject *obj);

    /** Records that core @p core lives at mesh node @p node. */
    void registerCore(CoreId core, NodeId node);

    /** Mesh node of core @p core. */
    NodeId nodeOfCore(CoreId core) const;

    /** True when core @p core is registered and its node has a @p unit. */
    bool
    coreHasUnit(CoreId core, Unit unit) const
    {
        return core < coreNodes.size() && coreNodes[core] < objects.size() &&
               objects[coreNodes[core]][unsigned(unit)] != nullptr;
    }

    /** Mesh node holding the LLC bank for line @p line_pa. */
    NodeId
    nodeOfLlc(PhysAddr line_pa) const
    {
        return NodeId((line_pa / lineBytes) % mesh.numNodes());
    }

    /**
     * Sends @p msg from @p src to the @p unit at @p dst: stages it in
     * @p src's mailbox and makes sure a flush event is pending for
     * the current tick.
     */
    void send(NodeId src, NodeId dst, Unit unit, Msg msg);

    /**
     * Routes every staged message, source nodes in order and each
     * node's messages in send order, and schedules the deliveries.
     * The per-tick flush event calls this.
     */
    void flushStaged();

    /** Convenience: sends a response back to the original requester. */
    void
    sendToRequester(NodeId src, const Msg &msg)
    {
        send(src, nodeOfCore(msg.requester), msg.requesterUnit, msg);
    }

    /** Routes every subsequent message through @p inj (may be null). */
    void setFaultInjector(FaultInjector *inj) { injector = inj; }

    /**
     * Test-only message filter: messages for which it returns true
     * are silently dropped (used to seed protocol bugs on purpose).
     */
    using DropFilter =
        std::function<bool(NodeId src, NodeId dst, const Msg &msg)>;
    void setTestDropFilter(DropFilter f) { dropFilter = std::move(f); }

    /** Messages of type @p t sent but not yet delivered. */
    std::uint64_t
    inFlight(MsgType t) const
    {
        return _sent[unsigned(t)] - _delivered[unsigned(t)];
    }

    /** Total messages sent but not yet delivered. */
    std::uint64_t totalInFlight() const;

    /** Writes the per-type in-flight table (watchdog diagnostics). */
    void dumpState(std::ostream &os) const;

    /** True when no staged message awaits a flush (drain invariant). */
    bool stagedEmpty() const;

    /** Flushes that routed at least one message (perf triage). */
    std::uint64_t flushCount() const { return _flushes; }

    /**
     * Serializes the sent/delivered counters.  Structural state
     * (object registrations) is rebuilt by constructing the System;
     * staged mailboxes are empty at every drain point and the flush
     * arm always resolves within the staging tick, so neither needs
     * serializing.
     */
    void snapshot(SnapshotWriter &w) const;

    /** Restores the counters from a checkpoint. */
    void restore(SnapshotReader &r);

  private:
    /** One staged (sent, not yet routed) message. */
    struct Staged
    {
        Tick tick; //!< sender's tick at send time
        NodeId dst;
        MemObject *target;
        Msg msg;
    };

    /** Hands one (possibly perturbed) message to the send path. */
    void dispatch(NodeId src, NodeId dst, MemObject *target, Msg msg);

    /** Ensures a flush event is pending for tick @p t. */
    void armFlush(Tick t);

    Mesh &mesh;
    EventQueue &eq; //!< the mesh's queue
    /** Registered objects, indexed [node][unit]; null where none. */
    std::vector<std::array<MemObject *, numUnits>> objects;
    std::vector<NodeId> coreNodes;

    /**
     * Per-source-node mailboxes.  Each is cleared (not deallocated)
     * at every flush, so after warm-up staging does no heap
     * allocation: messages append into retained capacity.
     */
    std::vector<std::vector<Staged>> staged;

    static constexpr Tick noFlush = ~Tick{0};
    Tick flushArmedFor = noFlush;

    std::uint64_t _flushes = 0;

    FaultInjector *injector = nullptr;
    DropFilter dropFilter;
    std::uint64_t droppedMsgs = 0;
    std::array<std::uint64_t, numMsgTypes> _sent{};
    std::array<std::uint64_t, numMsgTypes> _delivered{};
};

} // namespace stashsim

#endif // STASHSIM_MEM_FABRIC_HH
