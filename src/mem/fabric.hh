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
 */

#ifndef STASHSIM_MEM_FABRIC_HH
#define STASHSIM_MEM_FABRIC_HH

#include <array>
#include <atomic>
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
    explicit Fabric(Mesh &mesh) : mesh(mesh), objects(mesh.numNodes()) {}

    /** Registers @p obj as the @p unit at @p node. */
    void registerObject(NodeId node, Unit unit, MemObject *obj);

    /** Records that core @p core lives at mesh node @p node. */
    void registerCore(CoreId core, NodeId node);

    /** Mesh node of core @p core. */
    NodeId nodeOfCore(CoreId core) const;

    /** Mesh node holding the LLC bank for line @p line_pa. */
    NodeId
    nodeOfLlc(PhysAddr line_pa) const
    {
        return NodeId((line_pa / lineBytes) % mesh.numNodes());
    }

    /** Sends @p msg from @p src to the @p unit at @p dst. */
    void send(NodeId src, NodeId dst, Unit unit, Msg msg);

    /**
     * Binds the per-node event queues and switches sends to the
     * canonical deferred path: a send is staged in a per-source
     * mailbox at the sender's current tick, and flushStaged() later
     * routes every staged message in canonical (tick, src-node,
     * per-src order) order.  Routing order is what channel
     * reservations (and therefore packet timing) depend on, so
     * fixing it canonically makes serial and sharded runs take
     * identical reservations — the heart of the cross-mode
     * determinism contract (DESIGN.md section 10).
     *
     * In serial mode (@p sharded false) every entry of @p queues is
     * the same queue and the Fabric keeps itself flushed by
     * scheduling a PriInternal event at each staging tick.  In
     * sharded mode the engine calls flushStaged() at every quantum
     * barrier instead.  An unbound Fabric (unit tests) routes
     * immediately at send time.
     */
    void bindQueues(std::vector<EventQueue *> queues, bool sharded);

    /**
     * Routes and schedules every staged message in canonical order.
     * Single-threaded: runs at a tick boundary (serial) or a quantum
     * barrier with all shard workers parked (sharded).
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
        return _sent[unsigned(t)].load(std::memory_order_relaxed) -
               _delivered[unsigned(t)].load(std::memory_order_relaxed);
    }

    /** Total messages sent but not yet delivered. */
    std::uint64_t totalInFlight() const;

    /** Writes the per-type in-flight table (watchdog diagnostics). */
    void dumpState(std::ostream &os) const;

    /** True when no staged message awaits a flush (drain invariant). */
    bool stagedEmpty() const;

    /** @{ Flush-path counters (tests + perf triage).  A flush with
     * nothing staged counts in none of them; the three path counters
     * partition flushCount(). */
    std::uint64_t flushCount() const { return _flushes; }
    std::uint64_t flushSingleSource() const { return _flushSingleSource; }
    std::uint64_t flushUniformTick() const { return _flushUniformTick; }
    std::uint64_t flushMerged() const { return _flushMerged; }
    /** Defensive fallback: per-source ticks arrived out of order. */
    std::uint64_t flushResorted() const { return _flushResorted; }
    /** @} */

    /**
     * Serializes the sent/delivered counters.  Structural state
     * (object registrations, bound queues) is rebuilt by constructing
     * the System; staged mailboxes are empty at every drain point and
     * the serial-mode flush arm always resolves within the staging
     * tick, so neither needs serializing.
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

    /** Routes one staged message and schedules its delivery. */
    void deliverStaged(NodeId src, Staged &e);

    /** Serial mode: ensures a flush event is pending for tick @p t. */
    void armFlush(Tick t);

    Mesh &mesh;
    /** Registered objects, indexed [node][unit]; null where none. */
    std::vector<std::array<MemObject *, numUnits>> objects;
    std::vector<NodeId> coreNodes;

    /**
     * One source node's staging arena.  The entries vector is a bump
     * arena in the allocator sense: cleared (not deallocated) at
     * every flush, so after warm-up a quantum's staging does no heap
     * allocation at all — messages bump-append into retained
     * capacity.  `ordered` tracks whether ticks are non-decreasing in
     * staging order; a source's queue time never runs backwards, so
     * it stays true in practice and flushStaged() can merge the
     * mailboxes without sorting (DESIGN.md section 16).
     */
    struct Mailbox
    {
        std::vector<Staged> entries;
        bool ordered = true;
    };

    /** Empty until bindQueues(): immediate (legacy) send path. */
    std::vector<EventQueue *> tileQueues;
    bool shardedMode = false;
    std::vector<Mailbox> staged; //!< per source node

    static constexpr Tick noFlush = ~Tick{0};
    Tick flushArmedFor = noFlush;

    /** Merge scratch (one cursor per source); capacity retained. */
    std::vector<std::size_t> cursors;

    std::uint64_t _flushes = 0;
    std::uint64_t _flushSingleSource = 0;
    std::uint64_t _flushUniformTick = 0;
    std::uint64_t _flushMerged = 0;
    std::uint64_t _flushResorted = 0;

    FaultInjector *injector = nullptr;
    DropFilter dropFilter;
    std::uint64_t droppedMsgs = 0;
    /**
     * Commutative counters, atomic because sharded tiles send and
     * receive concurrently; totals are order-independent.
     */
    std::array<std::atomic<std::uint64_t>, numMsgTypes> _sent{};
    std::array<std::atomic<std::uint64_t>, numMsgTypes> _delivered{};
};

} // namespace stashsim

#endif // STASHSIM_MEM_FABRIC_HH
