#include "mem/cache.hh"

#include <algorithm>

#include "sim/log.hh"
#include "snapshot/snapshot.hh"
#include "verify/protocol_checker.hh"

namespace stashsim
{

L1Cache::L1Cache(EventQueue &eq, Fabric &fabric, Tlb &tlb, CoreId owner,
                 NodeId node, const Params &p)
    : eq(eq), fabric(fabric), tlb(tlb), owner(owner), node(node),
      params(p), sets(p.bytes / (lineBytes * p.assoc)),
      lines(sets * p.assoc)
{
    sim_assert(sets > 0 && (sets & (sets - 1)) == 0);
    wayWaiters.resize(sets);
    lineWaiters.resize(sets);
}

unsigned
L1Cache::setIndex(PhysAddr pa) const
{
    return unsigned((pa / lineBytes) & (sets - 1));
}

L1Cache::Line *
L1Cache::findLine(PhysAddr line_pa)
{
    Line *base = &lines[setIndex(line_pa) * params.assoc];
    for (unsigned w = 0; w < params.assoc; ++w) {
        if (base[w].allocated && base[w].pa == line_pa)
            return &base[w];
    }
    return nullptr;
}

L1Cache::Line *
L1Cache::allocLine(PhysAddr line_pa)
{
    Line *base = &lines[setIndex(line_pa) * params.assoc];
    Line *victim = nullptr;
    for (unsigned w = 0; w < params.assoc; ++w) {
        Line &l = base[w];
        if (!l.allocated) {
            victim = &l;
            break;
        }
        if (l.pinned)
            continue;
        if (!victim || l.lastUse < victim->lastUse)
            victim = &l;
    }
    if (!victim)
        return nullptr; // every way pinned by an MSHR
    if (victim->allocated)
        evict(*victim);
    victim->allocated = true;
    victim->pa = line_pa;
    victim->st.fill(WordState::Invalid);
    victim->data = LineData{};
    victim->lastUse = ++useClock;
    lineAllocated(line_pa);
    return victim;
}

void
L1Cache::evict(Line &line)
{
    sim_assert(!line.pinned);
    ++_stats.evictions;
    WordMask dirty = 0;
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        if (line.st[w] == WordState::Registered)
            dirty |= wordBit(w);
    }
    if (dirty)
        writebackWords(line, dirty);
    line.allocated = false;
}

void
L1Cache::writebackWords(Line &line, WordMask mask)
{
    ++_stats.writebacks;
    _stats.wordsWrittenBack += popcount(mask);
    Msg wb;
    wb.type = MsgType::WbReq;
    wb.requester = owner;
    wb.requesterUnit = Unit::L1;
    wb.linePA = line.pa;
    wb.mask = mask;
    wb.data = line.data;
    fabric.send(node, fabric.nodeOfLlc(line.pa), Unit::Llc,
                std::move(wb));
}

WordMask
L1Cache::readableMask(const Line &line) const
{
    WordMask m = 0;
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        if (readable(line.st[w]))
            m |= wordBit(w);
    }
    return m;
}

void
L1Cache::access(Addr line_va, WordMask mask, bool is_store,
                const LineData *store_data, AccessDone done)
{
    sim_assert(line_va % lineBytes == 0);
    sim_assert(mask != 0);
    sim_assert(!is_store || store_data != nullptr);
    // Physically tagged: translate on every access, once.  A parked
    // access keeps its physical address and is not re-translated.
    const PhysAddr line_pa = tlb.translate(line_va);
    const Wait wait = attempt(line_pa, mask, is_store, store_data, done);
    if (wait == Wait::None)
        return;
    parked.push_back(Parked{line_pa, mask, is_store, Wait::None, false,
                            is_store ? *store_data : LineData{},
                            std::move(done)});
    file(firstArrival + parked.size() - 1, wait);
}

L1Cache::Wait
L1Cache::attempt(PhysAddr line_pa, WordMask mask, bool is_store,
                 const LineData *store_data, AccessDone &done)
{
    // Statistics are charged only when the access proceeds, so a
    // parked access is charged once, when it finally runs.
    Line *line = findLine(line_pa);
    const Tick hit_latency = params.hitCycles * params.clockPeriod;

    if (is_store) {
        if (!line) {
            line = allocLine(line_pa);
            if (!line)
                return Wait::Way;
        }
        ++_stats.tlbAccesses;
        line->lastUse = ++useClock;
        WordMask need_reg = 0;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (!(mask & wordBit(w)))
                continue;
            line->data.w[w] = store_data->w[w];
            if (checker) {
                checker->onStore(line_pa + PhysAddr(w) * wordBytes,
                                 store_data->w[w]);
            }
            if (line->st[w] != WordState::Registered) {
                line->st[w] = WordState::Registered;
                need_reg |= wordBit(w);
            }
        }
        _stats.hitWords += popcount(WordMask(mask & ~need_reg));
        _stats.missWords += popcount(need_reg);
        if (need_reg) {
            ++_stats.storeMisses;
            Msg reg;
            reg.type = MsgType::RegReq;
            reg.requester = owner;
            reg.requesterUnit = Unit::L1;
            reg.linePA = line_pa;
            reg.mask = need_reg;
            fabric.send(node, fabric.nodeOfLlc(line_pa), Unit::Llc,
                        std::move(reg));
        } else {
            ++_stats.storeHits;
        }
        // Stores complete locally (write-buffer semantics); the
        // registration ack is not on the critical path.
        LineData snapshot = line->data;
        eq.scheduleIn(hit_latency, [done = std::move(done),
                                    snapshot]() { done(snapshot); });
        return Wait::None;
    }

    // Load path.
    const WordMask present = line ? readableMask(*line) : 0;
    const WordMask missing = mask & ~present;
    if (!missing) {
        ++_stats.tlbAccesses;
        ++_stats.loadHits;
        _stats.hitWords += popcount(mask);
        line->lastUse = ++useClock;
        LineData snapshot = line->data;
        eq.scheduleIn(hit_latency, [done = std::move(done),
                                    snapshot]() { done(snapshot); });
        return Wait::None;
    }

    if (!line) {
        // An MSHR pins its line, so a line that is not resident has
        // no MSHR to join.
        if (mshrs.live() >= params.mshrs)
            return Wait::Mshr;
        line = allocLine(line_pa);
        if (!line)
            return Wait::Way;
    }
    ++_stats.tlbAccesses;
    ++_stats.loadMisses;
    _stats.hitWords += popcount(WordMask(mask & ~missing));
    _stats.missWords += popcount(missing);
    line->lastUse = ++useClock;

    // The first miss on the line takes an MSHR slot; a released slot
    // has no waiters and no requested words.
    if (!line->pinned) {
        line->pinned = true;
        line->mshr = mshrs.take();
    }
    Mshr &mshr = mshrs[line->mshr];
    mshr.waiters.push_back(Waiter{mask, std::move(done)});
    const WordMask to_request = missing & ~mshr.requested;
    if (to_request) {
        mshr.requested |= to_request;
        Msg req;
        req.type = MsgType::ReadReq;
        req.requester = owner;
        req.requesterUnit = Unit::L1;
        req.linePA = line_pa;
        req.mask = to_request;
        req.wordsOnly = false; // caches take whole-line fills
        fabric.send(node, fabric.nodeOfLlc(line_pa), Unit::Llc,
                    std::move(req));
    }
    return Wait::None;
}

void
L1Cache::completeWaiters(PhysAddr line_pa, Line &line)
{
    if (!line.pinned)
        return;
    Mshr &mshr = mshrs[line.mshr];
    const WordMask present = readableMask(line);
    const Tick hit_latency = params.hitCycles * params.clockPeriod;

    for (auto w = mshr.waiters.begin(); w != mshr.waiters.end();) {
        if ((w->mask & ~present) == 0) {
            LineData snapshot = line.data;
            eq.scheduleIn(hit_latency,
                          [done = std::move(w->done), snapshot]() {
                              done(snapshot);
                          });
            w = mshr.waiters.erase(w);
        } else {
            ++w;
        }
    }
    if (mshr.waiters.empty()) {
        mshr.requested = 0;
        mshrs.release(line.mshr);
        line.pinned = false;
        if (!parked.empty())
            wake(setIndex(line_pa));
    }
}

L1Cache::Parked &
L1Cache::waiter(std::uint64_t arrival)
{
    sim_assert(arrival >= firstArrival &&
               arrival - firstArrival < parked.size());
    return parked[arrival - firstArrival];
}

void
L1Cache::file(std::uint64_t arrival, Wait wait)
{
    Parked &p = waiter(arrival);
    p.wait = wait;
    if (wait == Wait::Mshr)
        mshrScan = std::min(mshrScan, arrival);
    else
        wayWaiters[setIndex(p.linePA)].push_back(arrival);
    if (!p.watched) {
        lineWaiters[setIndex(p.linePA)].push_back(arrival);
        p.watched = true;
    }
}

void
L1Cache::lineAllocated(PhysAddr line_pa)
{
    // The set's list holds waiters of its other lines too; the order
    // they are found in does not matter, as they are visited by
    // arrival number.
    std::vector<std::uint64_t> &watching = lineWaiters[setIndex(line_pa)];
    for (std::size_t i = 0; i < watching.size();) {
        const std::uint64_t arrival = watching[i];
        Parked &p = waiter(arrival);
        if (p.linePA != line_pa) {
            ++i;
            continue;
        }
        p.watched = false;
        watching[i] = watching.back();
        watching.pop_back();
        if (arrival < lastVisited) {
            lineResident.push_back(arrival);
        } else if (arrival > lastVisited) {
            // Later in this wake's order: visit it in this wake.
            wakeHeap.push_back(arrival);
            std::push_heap(wakeHeap.begin(), wakeHeap.end(),
                           std::greater<>());
        }
        // arrival == lastVisited is the waiter allocating its own line.
    }
}

std::uint64_t
L1Cache::nextMshrWaiter()
{
    if (mshrs.live() >= params.mshrs)
        return noWaiter;
    // The Wait::Mshr waiters are a subsequence of parked; skip the
    // records that proceeded or wait for a way.
    const std::uint64_t end = firstArrival + parked.size();
    mshrScan = std::max(mshrScan, firstArrival + liveFrom);
    for (; mshrScan < end; ++mshrScan) {
        if (waiter(mshrScan).wait == Wait::Mshr)
            return mshrScan;
    }
    return noWaiter;
}

void
L1Cache::wake(unsigned set)
{
    // Visit, in arrival order, every waiter an MSHR release can let
    // proceed: the released set's way waiters, the waiters whose line
    // was allocated since they were last tried, and the MSHR waiters
    // while an MSHR is free.  No other waiter can proceed: a set gains
    // a way only when an MSHR in it releases, and MSHRs free only at
    // releases.  So every access proceeds exactly when, and in the
    // order, a replay of the whole list would let it.
    sim_assert(lastVisited == noWaiter && wakeHeap.empty());
    wakeHeap.swap(lineResident);
    std::vector<std::uint64_t> &ways = wayWaiters[set];
    wakeHeap.insert(wakeHeap.end(), ways.begin(), ways.end());
    ways.clear();
    std::make_heap(wakeHeap.begin(), wakeHeap.end(), std::greater<>());
    lastVisited = 0;
    for (;;) {
        // The heap may name a waiter twice, or one already visited.
        while (!wakeHeap.empty() && wakeHeap.front() <= lastVisited) {
            std::pop_heap(wakeHeap.begin(), wakeHeap.end(),
                          std::greater<>());
            wakeHeap.pop_back();
        }
        std::uint64_t next = nextMshrWaiter();
        if (!wakeHeap.empty())
            next = std::min(next, wakeHeap.front());
        if (next == noWaiter)
            break;
        sim_assert(next > lastVisited);
        lastVisited = next;
        Parked &p = waiter(next);
        const Wait wait =
            attempt(p.linePA, p.mask, p.isStore, &p.storeData, p.done);
        if (wait == Wait::None)
            p.wait = Wait::None;
        else
            file(next, wait);
    }
    lastVisited = noWaiter;

    // Drop the prefix of records that proceeded once it is at least
    // half the list, so each record is moved O(1) times.
    while (liveFrom < parked.size() &&
           parked[liveFrom].wait == Wait::None) {
        ++liveFrom;
    }
    if (2 * liveFrom >= parked.size()) {
        parked.erase(parked.begin(), parked.begin() + liveFrom);
        firstArrival += liveFrom;
        liveFrom = 0;
    }
}

void
L1Cache::receive(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::ReadResp: {
        Line *line = findLine(msg.linePA);
        if (!line) {
            // The MSHR pins the line, so this cannot happen unless
            // there was no MSHR (late duplicate response); drop.
            return;
        }
        // Checker: verify only the *demanded* words of this fill.  An
        // opportunistic whole-line fill may carry words whose new
        // registration is still in flight (transiently stale at the
        // LLC); demanded words are race-free under the DRF discipline.
        WordMask demanded = 0;
        if (checker && line->pinned)
            demanded = mshrs[line->mshr].requested;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (!(msg.mask & wordBit(w)))
                continue;
            if (line->st[w] == WordState::Invalid) {
                line->data.w[w] = msg.data.w[w];
                line->st[w] = WordState::Valid;
                if (demanded & wordBit(w)) {
                    checker->onFill(
                        "L1", owner,
                        msg.linePA + PhysAddr(w) * wordBytes,
                        msg.data.w[w]);
                }
            }
            // Registered words hold our own newer data; never
            // overwrite them with a fill.
        }
        completeWaiters(msg.linePA, *line);
        return;
      }
      case MsgType::RegAck:
        // Registration was taken optimistically at store time.
        return;
      case MsgType::InvReq: {
        Line *line = findLine(msg.linePA);
        if (!line)
            return;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (msg.mask & wordBit(w))
                line->st[w] = WordState::Invalid;
        }
        return;
      }
      case MsgType::FwdReadReq: {
        Line *line = findLine(msg.linePA);
        const WordMask have = line ? readableMask(*line) : 0;
        const WordMask can = msg.mask & have;
        if (can) {
            ++_stats.remoteHits;
            Msg resp;
            resp.type = MsgType::ReadResp;
            resp.requester = msg.requester;
            resp.requesterUnit = msg.requesterUnit;
            resp.linePA = msg.linePA;
            resp.mask = can;
            resp.data = line->data;
            fabric.sendToRequester(node, resp);
        }
        const WordMask miss = msg.mask & ~have;
        if (miss) {
            if (msg.retries > 100) {
                panic("L1: unresolvable forwarded request "
                      "(stale registration at the directory?)");
            }
            // Raced with our own writeback; bounce back to the LLC.
            Msg retry;
            retry.type = MsgType::FwdRetry;
            retry.requester = msg.requester;
            retry.requesterUnit = msg.requesterUnit;
            retry.linePA = msg.linePA;
            retry.mask = miss;
            retry.wordsOnly = true;
            retry.retries = std::uint8_t(msg.retries + 1);
            fabric.send(node, fabric.nodeOfLlc(msg.linePA), Unit::Llc,
                        std::move(retry));
        }
        return;
      }
      case MsgType::WbAck:
        return;
      default:
        panic("L1 received unexpected ", msgTypeName(msg.type));
    }
}

void
L1Cache::selfInvalidate()
{
    // Boundaries come after every access completed.  The wait list
    // relies on it: freeing ways here would not wake way waiters.
    sim_assert(parked.empty());
    for (Line &line : lines) {
        if (!line.allocated)
            continue;
        bool any_registered = false;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (line.st[w] == WordState::Valid) {
                if (checker) {
                    checker->onSelfInvalidate(
                        "L1", owner, line.pa + PhysAddr(w) * wordBytes,
                        line.st[w]);
                }
                line.st[w] = WordState::Invalid;
                ++_stats.selfInvalidations;
            } else if (line.st[w] == WordState::Registered) {
                any_registered = true;
            }
        }
        if (!any_registered && !line.pinned)
            line.allocated = false;
    }
}

void
L1Cache::flushAll()
{
    for (Line &line : lines) {
        if (!line.allocated)
            continue;
        WordMask dirty = 0;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (line.st[w] == WordState::Registered) {
                dirty |= wordBit(w);
                line.st[w] = WordState::Valid;
            }
        }
        if (dirty)
            writebackWords(line, dirty);
    }
}

void
L1Cache::forEachWord(
    const std::function<void(PhysAddr, WordState, std::uint32_t)> &fn)
    const
{
    for (const Line &line : lines) {
        if (!line.allocated)
            continue;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (line.st[w] != WordState::Invalid) {
                fn(line.pa + PhysAddr(w) * wordBytes, line.st[w],
                   line.data.w[w]);
            }
        }
    }
}

WordState
L1Cache::probe(Addr va)
{
    const PhysAddr pa = tlb.translate(va);
    Line *line = findLine(lineBase(pa));
    if (!line)
        return WordState::Invalid;
    return line->st[lineWord(pa)];
}

void
L1Cache::snapshot(SnapshotWriter &w) const
{
    // Checkpoints happen only at drain points, where no transaction
    // is in flight by construction.
    sim_assert(mshrs.live() == 0);
    sim_assert(parked.empty());
    w.u32(sets);
    w.u32(params.assoc);
    w.u64(useClock);
    writeStats(w, _stats);
    std::uint32_t allocated = 0;
    for (const Line &line : lines)
        allocated += line.allocated ? 1 : 0;
    w.u32(allocated);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const Line &line = lines[i];
        if (!line.allocated)
            continue;
        sim_assert(!line.pinned);
        w.u32(std::uint32_t(i));
        w.u64(line.pa);
        for (unsigned j = 0; j < wordsPerLine; ++j)
            w.u8(std::uint8_t(line.st[j]));
        for (unsigned j = 0; j < wordsPerLine; ++j)
            w.u32(line.data.w[j]);
        w.u64(line.lastUse);
    }
}

void
L1Cache::restore(SnapshotReader &r)
{
    sim_assert(mshrs.live() == 0);
    sim_assert(parked.empty());
    r.require(r.u32() == sets, "L1 set count mismatch");
    r.require(r.u32() == params.assoc, "L1 associativity mismatch");
    useClock = r.u64();
    readStats(r, _stats);
    lines.assign(lines.size(), Line{});
    const std::uint32_t allocated = r.u32();
    for (std::uint32_t k = 0; k < allocated; ++k) {
        const std::uint32_t i = r.u32();
        r.require(i < lines.size(), "L1 line index out of range");
        Line &line = lines[i];
        r.require(!line.allocated, "duplicate L1 line index");
        const PhysAddr pa = r.u64();
        r.require(pa % lineBytes == 0, "L1 line address not line-aligned");
        r.require(setIndex(pa) == i / params.assoc,
                  "L1 line stored outside its set");
        r.require(!findLine(pa), "L1 line stored twice in its set");
        line.allocated = true;
        line.pa = pa;
        for (unsigned j = 0; j < wordsPerLine; ++j) {
            const std::uint8_t st = r.u8();
            r.require(st <= std::uint8_t(WordState::Registered),
                      "bad word state");
            line.st[j] = WordState(st);
        }
        for (unsigned j = 0; j < wordsPerLine; ++j)
            line.data.w[j] = r.u32();
        line.lastUse = r.u64();
        r.require(line.lastUse <= useClock,
                  "L1 line used after the use clock");
    }
}

} // namespace stashsim
