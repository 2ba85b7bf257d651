#include "mem/fabric.hh"

#include <ostream>

#include "sim/log.hh"
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
    ++_sent[unsigned(msg.type)];
    const Tick t = eq.curTick();
    staged[src].push_back({t, dst, target, std::move(msg)});
    armFlush(t);
}

void
Fabric::armFlush(Tick t)
{
    if (flushArmedFor == t)
        return;
    flushArmedFor = t;
    eq.schedule(t, [this] { flushStaged(); }, EventQueue::PriInternal);
}

void
Fabric::flushStaged()
{
    flushArmedFor = noFlush;
    bool any = false;
    for (NodeId src = 0; src < staged.size(); ++src) {
        for (Staged &e : staged[src]) {
            const Tick arrive =
                mesh.route(src, e.dst, msgBytes(e.msg),
                           msgClassOf(e.msg.type), e.tick);
            eq.schedule(
                arrive,
                [this, target = e.target, msg = std::move(e.msg)]() {
                    ++_delivered[unsigned(msg.type)];
                    target->receive(msg);
                },
                EventQueue::PriDelivery);
            any = true;
        }
        staged[src].clear();
    }
    if (any)
        ++_flushes;
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
        const std::uint64_t sent = _sent[t];
        const std::uint64_t delivered = _delivered[t];
        if (sent == delivered)
            continue;
        os << "  " << msgTypeName(MsgType(t)) << ": "
           << sent - delivered << " in flight (" << sent << " sent, "
           << delivered << " delivered)\n";
    }
}

void
Fabric::assertDrained() const
{
    for (const auto &box : staged)
        sim_assert(box.empty());
}

} // namespace stashsim
