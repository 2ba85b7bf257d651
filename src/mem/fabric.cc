#include "mem/fabric.hh"

#include <algorithm>
#include <ostream>

#include "sim/log.hh"
#include "snapshot/snapshot.hh"
#include "verify/fault_injector.hh"

namespace stashsim
{

void
Fabric::registerObject(NodeId node, Unit unit, MemObject *obj)
{
    sim_assert(obj != nullptr);
    sim_assert(node < objects.size());
    MemObject *&slot = objects[node][unsigned(unit)];
    sim_assert(slot == nullptr);
    slot = obj;
}

void
Fabric::registerCore(CoreId core, NodeId node)
{
    if (coreNodes.size() <= core)
        coreNodes.resize(core + 1, NodeId(~0u));
    coreNodes[core] = node;
}

NodeId
Fabric::nodeOfCore(CoreId core) const
{
    sim_assert(core < coreNodes.size());
    sim_assert(coreNodes[core] != NodeId(~0u));
    return coreNodes[core];
}

void
Fabric::bindQueues(std::vector<EventQueue *> queues, bool sharded)
{
    sim_assert(queues.size() == mesh.numNodes());
    tileQueues = std::move(queues);
    shardedMode = sharded;
    staged.assign(tileQueues.size(), {});
    flushArmedFor = noFlush;
}

void
Fabric::send(NodeId src, NodeId dst, Unit unit, Msg msg)
{
    MemObject *target =
        dst < objects.size() ? objects[dst][unsigned(unit)] : nullptr;
    if (!target) {
        panic("fabric: no ", unsigned(unit), " unit at node ", dst,
              " for ", msgTypeName(msg.type));
    }
    if (dropFilter && dropFilter(src, dst, msg)) {
        ++droppedMsgs;
        return;
    }
    if (injector) {
        // The dispatch closure owns a copy of the message: the
        // injector may invoke it now, later, or twice (duplication).
        const Msg &m = msg;
        injector->inject(src, dst, m,
                         [this, src, dst, target, msg]() {
                             dispatch(src, dst, target, msg);
                         });
        return;
    }
    dispatch(src, dst, target, std::move(msg));
}

void
Fabric::dispatch(NodeId src, NodeId dst, MemObject *target, Msg msg)
{
    _sent[unsigned(msg.type)].fetch_add(1, std::memory_order_relaxed);
    if (tileQueues.empty()) {
        // Unbound (standalone/unit-test) fabric: route immediately.
        mesh.send(src, dst, msgBytes(msg), msgClassOf(msg.type),
                  [this, target, msg = std::move(msg)]() {
                      _delivered[unsigned(msg.type)].fetch_add(
                          1, std::memory_order_relaxed);
                      target->receive(msg);
                  });
        return;
    }
    const Tick t = tileQueues[src]->curTick();
    Mailbox &box = staged[src];
    if (!box.entries.empty() && t < box.entries.back().tick)
        box.ordered = false;
    box.entries.push_back({t, dst, target, std::move(msg)});
    if (!shardedMode)
        armFlush(t);
}

void
Fabric::armFlush(Tick t)
{
    if (flushArmedFor == t)
        return;
    flushArmedFor = t;
    tileQueues[0]->schedule(
        t, [this] { flushStaged(); }, EventQueue::PriInternal);
}

void
Fabric::flushStaged()
{
    flushArmedFor = noFlush;
    // Canonical global routing order: (tick, src node, per-src send
    // order).  Per-source mailboxes are tick-ordered by construction
    // (a source's queue time never runs backwards), so the canonical
    // order falls out of an allocation-free merge — no per-flush sort
    // of the whole staged set.  Two common shapes skip even the
    // merge: exactly one source staged (its staging order IS the
    // canonical order), and all entries sharing one tick (the serial
    // engine's PriInternal flush runs at the staging tick, so this is
    // every serial flush; canonical order reduces to src-major).
    NodeId onlySrc = 0;
    unsigned nonEmpty = 0;
    Tick lo = ~Tick{0};
    Tick hi = 0;
    for (NodeId src = 0; src < staged.size(); ++src) {
        Mailbox &box = staged[src];
        if (box.entries.empty())
            continue;
        if (!box.ordered) {
            // Defensive fallback; not hit by any current send path.
            // stable_sort preserves staging order within a tick, so
            // the canonical (tick, src, per-src order) key survives.
            std::stable_sort(box.entries.begin(), box.entries.end(),
                             [](const Staged &a, const Staged &b) {
                                 return a.tick < b.tick;
                             });
            box.ordered = true;
            ++_flushResorted;
        }
        ++nonEmpty;
        onlySrc = src;
        lo = std::min(lo, box.entries.front().tick);
        hi = std::max(hi, box.entries.back().tick);
    }
    if (nonEmpty == 0)
        return;
    ++_flushes;

    if (nonEmpty == 1) {
        ++_flushSingleSource;
        Mailbox &box = staged[onlySrc];
        for (Staged &e : box.entries)
            deliverStaged(onlySrc, e);
        box.entries.clear();
        return;
    }

    if (lo == hi) {
        ++_flushUniformTick;
        for (NodeId src = 0; src < staged.size(); ++src) {
            Mailbox &box = staged[src];
            for (Staged &e : box.entries)
                deliverStaged(src, e);
            box.entries.clear();
        }
        return;
    }

    // General case: k-way cursor merge keyed on (tick, src).  The
    // source count is the mesh size (16), so a linear min-scan per
    // delivery beats heap bookkeeping and allocates nothing.
    ++_flushMerged;
    if (cursors.size() < staged.size())
        cursors.resize(staged.size());
    std::fill(cursors.begin(), cursors.end(), 0);
    for (;;) {
        NodeId best = NodeId(~0u);
        Tick bestTick = ~Tick{0};
        for (NodeId src = 0; src < staged.size(); ++src) {
            const Mailbox &box = staged[src];
            if (cursors[src] >= box.entries.size())
                continue;
            const Tick t = box.entries[cursors[src]].tick;
            if (best == NodeId(~0u) || t < bestTick) {
                best = src;
                bestTick = t;
            }
        }
        if (best == NodeId(~0u))
            break;
        deliverStaged(best, staged[best].entries[cursors[best]]);
        ++cursors[best];
    }
    for (auto &box : staged)
        box.entries.clear();
}

void
Fabric::deliverStaged(NodeId src, Staged &e)
{
    const Tick arrive = mesh.route(src, e.dst, msgBytes(e.msg),
                                   msgClassOf(e.msg.type), e.tick);
    tileQueues[e.dst]->schedule(
        arrive,
        [this, target = e.target, msg = std::move(e.msg)]() {
            _delivered[unsigned(msg.type)].fetch_add(
                1, std::memory_order_relaxed);
            target->receive(msg);
        },
        EventQueue::PriDelivery);
}

std::uint64_t
Fabric::totalInFlight() const
{
    std::uint64_t n = 0;
    for (unsigned t = 0; t < numMsgTypes; ++t)
        n += inFlight(MsgType(t));
    return n;
}

void
Fabric::dumpState(std::ostream &os) const
{
    os << "fabric: " << totalInFlight() << " message(s) in flight";
    if (droppedMsgs)
        os << ", " << droppedMsgs << " dropped by test filter";
    os << "\n";
    for (unsigned t = 0; t < numMsgTypes; ++t) {
        const std::uint64_t sent =
            _sent[t].load(std::memory_order_relaxed);
        const std::uint64_t delivered =
            _delivered[t].load(std::memory_order_relaxed);
        if (sent == delivered)
            continue;
        os << "  " << msgTypeName(MsgType(t)) << ": "
           << sent - delivered << " in flight (" << sent << " sent, "
           << delivered << " delivered)\n";
    }
}

bool
Fabric::stagedEmpty() const
{
    for (const auto &box : staged)
        if (!box.entries.empty())
            return false;
    return true;
}

void
Fabric::snapshot(SnapshotWriter &w) const
{
    // Checkpoints happen only at drain points, where every staged
    // mailbox has been flushed and delivered.
    sim_assert(stagedEmpty());
    w.u32(numMsgTypes);
    for (unsigned t = 0; t < numMsgTypes; ++t) {
        w.u64(_sent[t].load(std::memory_order_relaxed));
        w.u64(_delivered[t].load(std::memory_order_relaxed));
    }
}

void
Fabric::restore(SnapshotReader &r)
{
    sim_assert(stagedEmpty());
    r.require(r.u32() == numMsgTypes, "message-type count mismatch");
    for (unsigned t = 0; t < numMsgTypes; ++t) {
        _sent[t].store(r.u64(), std::memory_order_relaxed);
        _delivered[t].store(r.u64(), std::memory_order_relaxed);
    }
}

} // namespace stashsim
