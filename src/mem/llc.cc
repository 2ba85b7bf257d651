#include "mem/llc.hh"

#include "mem/group_by_key.hh"
#include "sim/log.hh"
#include "snapshot/snapshot.hh"

namespace stashsim
{

namespace
{

/** A registered word's directory record: owner core, unit, map index. */
struct Owner
{
    CoreId core;
    bool isStash;
    unsigned mapIdx;

    auto operator<=>(const Owner &) const = default;
};

/**
 * Ends a write: one InvReq per previous owner in @p inv, in key order
 * (counted in @p sent), then an @p ack_type acknowledgement of @p req.
 */
void
invalidateAndAck(Fabric &fabric, NodeId node, const Msg &req,
                 GroupByKey<Owner> &inv, MsgType ack_type, Counter &sent)
{
    inv.forEach([&](const Owner &o, WordMask mask, auto) {
        ++sent;
        Msg i;
        i.type = MsgType::InvReq;
        i.requester = o.core;
        i.requesterUnit = o.isStash ? Unit::Stash : Unit::L1;
        i.linePA = req.linePA;
        i.mask = mask;
        i.stashMapIdx = std::uint8_t(o.mapIdx);
        fabric.send(node, fabric.nodeOfCore(o.core), i.requesterUnit,
                    std::move(i));
    });
    Msg ack;
    ack.type = ack_type;
    ack.requester = req.requester;
    ack.requesterUnit = req.requesterUnit;
    ack.linePA = req.linePA;
    ack.mask = req.mask;
    fabric.sendToRequester(node, ack);
}

} // namespace

LlcBank::LlcBank(EventQueue &eq, Fabric &fabric, MemBackend &backend,
                 NodeId node, const Params &p)
    : eq(eq), fabric(fabric), backend(backend), node(node), params(p),
      sets(unsigned(p.bankBytes / (std::uint64_t(lineBytes) * p.assoc))),
      tags(std::size_t(sets) * p.assoc), used(sets),
      bodies(tags.size())
{
    // System::System reports a bad geometry as a fatal config error.
    sim_assert(sets > 0 && (sets & (sets - 1)) == 0);
}

unsigned
LlcBank::setIndex(PhysAddr pa) const
{
    // Banks interleave at line granularity across nodes; the bits
    // above the bank selector index the set within the bank.
    return unsigned((pa / lineBytes / 16) & (sets - 1));
}

std::size_t
LlcBank::findWay(PhysAddr line_pa) const
{
    const unsigned set = setIndex(line_pa);
    const std::size_t base = std::size_t(set) * params.assoc;
    for (std::size_t i = base; i < base + used[set]; ++i) {
        if (tags[i] == line_pa)
            return i;
    }
    return noWay;
}

std::size_t
LlcBank::addWay(unsigned set, PhysAddr line_pa)
{
    const std::size_t i = std::size_t(set) * params.assoc + used[set]++;
    if (store.empty() || store.back().size() == chunkLines) {
        store.emplace_back();
        store.back().reserve(chunkLines);
    }
    tags[i] = line_pa;
    bodies[i] = &store.back().emplace_back();
    return i;
}

std::size_t
LlcBank::allocWay(PhysAddr line_pa)
{
    const unsigned set = setIndex(line_pa);
    if (used[set] < params.assoc) {
        // No way is freed during a run, so the set's free ways are
        // [used, assoc) and the first of them is the one to take.
        const std::size_t i = addWay(set, line_pa);
        bodies[i]->lastUse = ++useClock;
        return i;
    }
    const std::size_t base = std::size_t(set) * params.assoc;
    std::size_t victim = noWay;
    for (std::size_t i = base; i < base + params.assoc; ++i) {
        const Line &l = *bodies[i];
        if (l.fillPending)
            continue;
        if (l.inService > 0) {
            // A request accepted this line and its bank access is in
            // flight; evicting it now would break the accept/serve
            // invariant serve() relies on.
            continue;
        }
        bool has_registered = false;
        for (const WordEntry &we : l.words) {
            if (we.state == WordState::Registered) {
                has_registered = true;
                break;
            }
        }
        if (has_registered)
            continue; // never evict the registry's only pointer
        if (victim == noWay || l.lastUse < bodies[victim]->lastUse)
            victim = i;
    }
    if (victim == noWay) {
        panic("LLC bank ", node, ": set full of registered lines; the "
              "workload working set exceeds what this model supports");
    }
    Line &line = *bodies[victim];
    if (line.dirty) {
        LineData d;
        WordMask m = 0;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            d.w[w] = line.words[w].data;
            m |= wordBit(w);
        }
        backend.writeLine(tags[victim], m, d);
        ++_stats.memWrites;
    }
    // The victim is idle (no fill, no waiter, not in service), so
    // only its registry, dirty bit and LRU stamp need resetting.
    tags[victim] = line_pa;
    line.words.fill(WordEntry{});
    line.dirty = false;
    line.lastUse = ++useClock;
    return victim;
}

void
LlcBank::receive(const Msg &msg)
{
    // The line is looked up once per message: a body never moves,
    // and a line with a fill pending or a request in service is never
    // a victim, so its way still names it when the fill lands or the
    // bank access ends.
    std::size_t way = findWay(msg.linePA);
    if (way != noWay && bodies[way]->fillPending) {
        waiting.push_back(msg);
        return;
    }
    if (way == noWay) {
        way = allocWay(msg.linePA);
        bodies[way]->fillPending = true;
        waiting.push_back(msg);
        // The backend completes with the memory image as of the
        // completion tick and charges its own model's latency.
        backend.readLine(msg.linePA, [this, way](const LineData &d) {
            fillDone(way, d);
        });
        return;
    }
    process(msg, way);
}

void
LlcBank::fillDone(std::size_t way, const LineData &d)
{
    Line &line = *bodies[way];
    sim_assert(line.fillPending);
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        line.words[w].state = WordState::Valid;
        line.words[w].data = d.w[w];
    }
    line.fillPending = false;
    ++_stats.fills;
    // Accept the requests queued behind this fill, in arrival order;
    // the others keep theirs.
    const PhysAddr pa = tags[way];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < waiting.size(); ++i) {
        if (waiting[i].linePA == pa)
            process(waiting[i], way);
        else
            waiting[kept++] = waiting[i];
    }
    waiting.resize(kept);
}

void
LlcBank::process(const Msg &msg, std::size_t way)
{
    // Bank access latency, then serve.  The line cannot be evicted
    // between accept and serve: marking it in-service takes it out of
    // allocWay()'s victim pool (a concurrent fill allocation in the
    // same set would otherwise be able to evict it while its lastUse
    // is still stale).  serve() asserts the invariant.
    Line &line = *bodies[way];
    sim_assert(tags[way] == msg.linePA && !line.fillPending);
    ++line.inService;
    auto access = [this, msg, way]() { serve(msg, way); };
    static_assert(sizeof(access) <= EventQueue::Callback::inlineBytes,
                  "a bank access must not allocate");
    eq.scheduleIn(params.accessCycles * params.clockPeriod,
                  std::move(access));
}

void
LlcBank::serve(const Msg &m, std::size_t way)
{
    Line &line = *bodies[way];
    sim_assert(tags[way] == m.linePA && line.inService > 0);
    --line.inService;
    line.lastUse = ++useClock;
    ++_stats.accesses;
    switch (m.type) {
      case MsgType::ReadReq:
      case MsgType::FwdRetry:
      case MsgType::DmaReadReq:
        serveRead(m, line);
        break;
      case MsgType::RegReq:
        serveReg(m, line);
        break;
      case MsgType::WbReq:
      case MsgType::DmaWriteReq:
        serveWb(m, line);
        break;
      default:
        panic("LLC received unexpected ", msgTypeName(m.type));
    }
}

void
LlcBank::serveRead(const Msg &msg, Line &line)
{
    ++_stats.reads;
    if (tracePA(msg.linePA) && msg.retries < 3) {
        inform("LLC Read pa=0x", std::hex, msg.linePA, std::dec,
               " mask=0x", std::hex, msg.mask, std::dec, " from core ",
               msg.requester, " retries ", unsigned(msg.retries),
               " w0state=", wordStateName(line.words[0].state),
               " w0owner=", line.words[0].owner, " w0idx=",
               unsigned(line.words[0].mapIdx));
    }

    // Forward demanded words that are registered elsewhere, grouped
    // by (owner, unit, map index).
    GroupByKey<Owner> fwd;
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        if (!(msg.mask & wordBit(w)))
            continue;
        const WordEntry &we = line.words[w];
        if (we.state != WordState::Registered)
            continue;
        // The owner may be the requester itself: a stash re-reading,
        // under a new mapping, data its older mapping still owns, or
        // an L1 racing its own eviction's writeback.  Forward anyway;
        // the owner serves from the registered location or bounces a
        // retry that lands after the writeback.
        fwd.add({we.owner, we.ownerIsStash, we.mapIdx}, wordBit(w));
    }

    fwd.forEach([&](const Owner &o, WordMask mask, auto) {
        ++_stats.remoteForwards;
        Msg f;
        f.type = MsgType::FwdReadReq;
        f.requester = msg.requester;
        f.requesterUnit = msg.requesterUnit;
        f.linePA = msg.linePA;
        f.mask = mask;
        f.stashMapIdx = std::uint8_t(o.mapIdx);
        f.retries = msg.retries;
        fabric.send(node, fabric.nodeOfCore(o.core),
                    o.isStash ? Unit::Stash : Unit::L1, std::move(f));
    });

    // Respond with what the LLC holds: exactly the demanded words for
    // word-granularity requesters (stash/DMA), the whole line's valid
    // words for cache fills.
    WordMask resp_mask = 0;
    LineData d;
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        const WordEntry &we = line.words[w];
        if (we.state != WordState::Valid)
            continue;
        if (msg.wordsOnly && !(msg.mask & wordBit(w)))
            continue;
        resp_mask |= wordBit(w);
        d.w[w] = we.data;
    }
    if (resp_mask) {
        Msg resp;
        resp.type = msg.type == MsgType::DmaReadReq ? MsgType::DmaReadResp
                                                    : MsgType::ReadResp;
        resp.requester = msg.requester;
        resp.requesterUnit = msg.requesterUnit;
        resp.linePA = msg.linePA;
        resp.mask = resp_mask;
        resp.data = d;
        fabric.sendToRequester(node, resp);
    }
}

void
LlcBank::serveReg(const Msg &msg, Line &line)
{
    if (tracePA(msg.linePA)) {
        inform("LLC RegReq pa=0x", std::hex, msg.linePA, std::dec,
               " mask=0x", std::hex, msg.mask, std::dec, " from core ",
               msg.requester, msg.ownerIsStash ? " (stash idx " : " (L1",
               msg.ownerIsStash ? std::to_string(msg.stashMapIdx) : "",
               ")");
    }
    // Invalidate previous owners (single-owner transfer, the DeNovo
    // analogue of ownership stealing), grouped per old owner.
    GroupByKey<Owner> inv;
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        if (!(msg.mask & wordBit(w)))
            continue;
        WordEntry &we = line.words[w];
        if (we.state == WordState::Registered &&
            (we.owner != msg.requester ||
             we.ownerIsStash != msg.ownerIsStash)) {
            inv.add({we.owner, we.ownerIsStash, we.mapIdx}, wordBit(w));
        }
        we.state = WordState::Registered;
        we.owner = msg.requester;
        we.ownerIsStash = msg.ownerIsStash;
        we.mapIdx = msg.stashMapIdx;
        ++_stats.registrations;
    }
    line.dirty = true;

    invalidateAndAck(fabric, node, msg, inv, MsgType::RegAck,
                     _stats.invalidationsSent);
}

void
LlcBank::serveWb(const Msg &msg, Line &line)
{
    if (tracePA(msg.linePA)) {
        inform("LLC Wb pa=0x", std::hex, msg.linePA, std::dec,
               " mask=0x", std::hex, msg.mask, std::dec, " from core ",
               msg.requester, " unit ",
               msg.requesterUnit == Unit::Stash ? "stash" : "l1/dma");
    }
    const bool is_dma = msg.type == MsgType::DmaWriteReq;
    GroupByKey<Owner> inv;
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        if (!(msg.mask & wordBit(w)))
            continue;
        WordEntry &we = line.words[w];
        if (we.state == WordState::Registered &&
            (we.owner != msg.requester ||
             we.ownerIsStash != (msg.requesterUnit == Unit::Stash))) {
            if (!is_dma) {
                // Stale writeback: registration has moved on.
                continue;
            }
            // A DMA store is a real store: it takes the word from its
            // previous owner (whose copy is now stale).
            inv.add({we.owner, we.ownerIsStash, we.mapIdx}, wordBit(w));
        }
        we.state = WordState::Valid;
        we.data = msg.data.w[w];
        we.owner = invalidCore;
        we.ownerIsStash = false;
        ++_stats.writebacksRecv;
    }
    line.dirty = true;

    invalidateAndAck(fabric, node, msg, inv,
                     is_dma ? MsgType::DmaWriteAck : MsgType::WbAck,
                     _stats.invalidationsSent);
}

void
LlcBank::flushDirtyToMemory()
{
    forEachLine([&](std::size_t, PhysAddr pa, Line &line) {
        if (!line.dirty)
            return;
        LineData d;
        WordMask m = 0;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (line.words[w].state == WordState::Valid) {
                d.w[w] = line.words[w].data;
                m |= wordBit(w);
            }
        }
        if (m)
            backend.writeLineFunctional(pa, m, d);
        line.dirty = false;
    });
}

void
LlcBank::forEachDirectoryWord(
    const std::function<void(PhysAddr, WordState, std::uint32_t, CoreId,
                             bool, unsigned)> &fn) const
{
    forEachLine([&](std::size_t, PhysAddr pa, const Line &line) {
        if (line.fillPending)
            return;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            const WordEntry &we = line.words[w];
            fn(pa + PhysAddr(w) * wordBytes, we.state, we.data,
               we.owner, we.ownerIsStash, we.mapIdx);
        }
    });
}

std::size_t
LlcBank::pendingFillLines() const
{
    std::size_t n = 0;
    forEachLine([&](std::size_t, PhysAddr, const Line &line) {
        n += line.fillPending ? 1 : 0;
    });
    return n;
}

CoreId
LlcBank::ownerOf(PhysAddr pa)
{
    const std::size_t way = findWay(lineBase(pa));
    if (way == noWay)
        return invalidCore;
    const WordEntry &we = bodies[way]->words[lineWord(pa)];
    return we.state == WordState::Registered ? we.owner : invalidCore;
}

void
LlcBank::snapshot(SnapshotWriter &w) const
{
    w.u32(sets);
    w.u32(params.assoc);
    w.u64(useClock);
    writeStats(w, _stats);
    std::uint32_t allocated = 0;
    for (unsigned n : used)
        allocated += n;
    w.u32(allocated);
    // Drain points have no fill in flight, no parked requests, and no
    // bank access between accept and serve.
    sim_assert(waiting.empty());
    forEachLine([&](std::size_t i, PhysAddr pa, const Line &line) {
        sim_assert(!line.fillPending);
        sim_assert(line.inService == 0);
        w.u32(std::uint32_t(i));
        w.u64(pa);
        w.b(line.dirty);
        w.u64(line.lastUse);
        for (const WordEntry &we : line.words) {
            w.u8(std::uint8_t(we.state));
            w.u32(we.data);
            w.u32(we.owner);
            w.b(we.ownerIsStash);
            w.u8(we.mapIdx);
        }
    });
}

void
LlcBank::restore(SnapshotReader &r)
{
    r.require(r.u32() == sets, "LLC set count mismatch");
    r.require(r.u32() == params.assoc, "LLC associativity mismatch");
    useClock = r.u64();
    readStats(r, _stats);
    used.assign(sets, 0);
    store.clear();
    const std::uint32_t allocated = r.u32();
    for (std::uint32_t k = 0; k < allocated; ++k) {
        const std::uint32_t savedIdx = r.u32();
        r.require(savedIdx < std::uint64_t(sets) * params.assoc,
                  "LLC line index out of range");
        const PhysAddr pa = r.u64();
        r.require(pa % lineBytes == 0,
                  "LLC line address not line-aligned");
        r.require(fabric.nodeOfLlc(pa) == node,
                  "LLC line homed at another bank");
        r.require(findWay(pa) == noWay, "LLC line stored twice");
        const unsigned set = setIndex(pa);
        // snapshot() writes each set's ways from way 0 up, with no
        // gap: the only layout a run can reach.
        r.require(savedIdx / params.assoc == set,
                  "LLC line stored outside its set");
        r.require(savedIdx % params.assoc == used[set],
                  "LLC set's ways not stored from way 0 up");
        Line &line = *bodies[addWay(set, pa)];
        line.dirty = r.b();
        line.lastUse = r.u64();
        r.require(line.lastUse <= useClock,
                  "LLC line used after the use clock");
        for (WordEntry &we : line.words) {
            const std::uint8_t st = r.u8();
            r.require(st <= std::uint8_t(WordState::Registered),
                      "bad word state");
            we.state = WordState(st);
            we.data = r.u32();
            we.owner = r.u32();
            we.ownerIsStash = r.b();
            we.mapIdx = r.u8();
            r.require(we.state != WordState::Registered ||
                          fabric.coreHasUnit(we.owner,
                                             we.ownerIsStash
                                                 ? Unit::Stash
                                                 : Unit::L1),
                      "LLC word registered to an owner the fabric "
                      "cannot reach");
            r.require(we.state != WordState::Registered ||
                          !we.ownerIsStash ||
                          we.mapIdx < params.stashMapEntries,
                      "LLC word registered to a stash map entry past "
                      "the map's size");
        }
    }
}

} // namespace stashsim
