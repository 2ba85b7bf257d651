#include "gpu/compute_unit.hh"

#include <algorithm>
#include <bit>

#include "mem/group_by_key.hh"
#include "sim/log.hh"
#include "verify/watchdog.hh"

namespace stashsim
{

ComputeUnit::ComputeUnit(EventQueue &eq, const SystemConfig &cfg,
                         CoreId core, L1Cache *l1, Scratchpad *spad,
                         Stash *stash, DmaEngine *dma)
    : eq(eq), cfg(cfg), core(core), l1(l1), spad(spad), stash(stash),
      dma(dma)
{
    sim_assert(l1 != nullptr);
    freeLocalSpace.emplace_back(0, cfg.localBytes);
}

// ---------------------------------------------------------------------
// Local-memory allocation
// ---------------------------------------------------------------------

bool
ComputeUnit::allocLocal(std::uint32_t bytes, LocalAddr *base)
{
    if (bytes == 0) {
        *base = 0;
        return true;
    }
    // Next-fit with wraparound: allocate at or after the rotating
    // pointer.  This mirrors the runtime allocation behaviour the
    // stash's cross-kernel reuse relies on — successive kernels with
    // identical grids see their blocks land at the same stash
    // addresses once the pointer wraps a full cycle.
    auto try_from = [&](LocalAddr from) -> bool {
        for (auto &[b, sz] : freeLocalSpace) {
            LocalAddr start = b;
            std::uint32_t avail = sz;
            if (start < from) {
                if (start + avail <= from)
                    continue;
                avail -= (from - start);
                start = from;
            }
            if (avail >= bytes) {
                *base = start;
                // Split the interval around [start, start + bytes).
                const LocalAddr old_b = b;
                const std::uint32_t old_sz = sz;
                b = old_b;
                sz = start - old_b;
                if (old_b + old_sz > start + bytes) {
                    freeLocalSpace.emplace_back(
                        LocalAddr(start + bytes),
                        old_b + old_sz - (start + bytes));
                }
                std::sort(freeLocalSpace.begin(),
                          freeLocalSpace.end());
                std::erase_if(freeLocalSpace, [](const auto &iv) {
                    return iv.second == 0;
                });
                return true;
            }
        }
        return false;
    };

    if (try_from(allocPtr) || try_from(0)) {
        allocPtr = LocalAddr(*base + bytes);
        if (allocPtr >= cfg.localBytes)
            allocPtr = 0;
        return true;
    }
    return false;
}

void
ComputeUnit::freeLocal(LocalAddr base, std::uint32_t bytes)
{
    if (bytes == 0)
        return;
    // The free list is sorted and coalesced, with no empty interval,
    // so only the freed interval's neighbours can merge with it.
    auto next = std::lower_bound(freeLocalSpace.begin(),
                                 freeLocalSpace.end(),
                                 std::make_pair(base, std::uint32_t(0)));
    const bool join_prev =
        next != freeLocalSpace.begin() &&
        std::prev(next)->first + std::prev(next)->second == base;
    const bool join_next =
        next != freeLocalSpace.end() && base + bytes == next->first;
    if (join_prev && join_next) {
        std::prev(next)->second += bytes + next->second;
        freeLocalSpace.erase(next);
    } else if (join_prev) {
        std::prev(next)->second += bytes;
    } else if (join_next) {
        next->first = base;
        next->second += bytes;
    } else {
        freeLocalSpace.insert(next, {base, bytes});
    }
}

// ---------------------------------------------------------------------
// Kernel lifecycle
// ---------------------------------------------------------------------

namespace
{

/** A context from @p spares, or a new one; value-initialized either way. */
template <class T>
std::unique_ptr<T>
reuse(std::vector<std::unique_ptr<T>> &spares)
{
    if (spares.empty())
        return std::make_unique<T>();
    std::unique_ptr<T> p = std::move(spares.back());
    spares.pop_back();
    *p = T{};
    return p;
}

/**
 * Moves the contexts for which @p dead holds from @p live to
 * @p spares; the rest keep their order.
 */
template <class T, class Pred>
void
retire(std::vector<std::unique_ptr<T>> &live,
       std::vector<std::unique_ptr<T>> &spares, Pred dead)
{
    auto keep = live.begin();
    for (auto &p : live) {
        if (dead(*p))
            spares.push_back(std::move(p));
        else
            *keep++ = std::move(p); // a self-move keeps p as it is
    }
    live.erase(keep, live.end());
}

} // namespace

void
ComputeUnit::runKernel(const Kernel &k, std::size_t first,
                       std::size_t stride, std::function<void()> done)
{
    sim_assert(!kernelActive);
    sim_assert(first < k.blocks.size() && stride > 0);
    kernel = &k;
    kernelDone = std::move(done);
    nextBlock = first;
    blockStride = stride;
    kernelActive = true;
    kernelStart = eq.curTick();
    instrAtKernelStart = _stats.instructions;
    ++_stats.kernels;
    tryLaunchBlocks();
}

void
ComputeUnit::tryLaunchBlocks()
{
    while (nextBlock < kernel->blocks.size()) {
        if (blocks.size() >= cfg.maxResidentTbsPerCu)
            return;
        const ThreadBlock &tb = kernel->blocks[nextBlock];
        unsigned live_warps = 0;
        for (const auto &b : blocks)
            live_warps += unsigned(b->tb->warps.size());
        if (live_warps + tb.warps.size() > cfg.maxWarpsPerCu &&
            !blocks.empty()) {
            return;
        }
        LocalAddr base;
        if (!allocLocal(tb.localBytes, &base)) {
            if (blocks.empty()) {
                fatal("thread block local allocation (", tb.localBytes,
                      " B) exceeds local memory (", cfg.localBytes,
                      " B)");
            }
            return;
        }
        nextBlock += blockStride;

        TbCtx *tbc = blocks.emplace_back(reuse(spareBlocks)).get();
        tbc->tb = &tb;
        tbc->lanes = tb.addrs.data();
        tbc->localBase = base;
        tbc->liveWarps = unsigned(tb.warps.size());

        // AddMaps execute at block start (one instruction each).
        Cycles launch_delay = 0;
        if (!tb.addMaps.empty()) {
            sim_assert(stash != nullptr);
            sim_assert(tb.addMaps.size() <= tbc->mapIdx.size());
            for (std::size_t i = 0; i < tb.addMaps.size(); ++i) {
                const AddMapOp &am = tb.addMaps[i];
                auto r = stash->addMap(
                    LocalAddr(tbc->localBase + am.stashOffset), am.tile);
                tbc->mapIdx[i] = r.idx;
                launch_delay += r.cost;
                ++_stats.instructions;
            }
        }

        // Create the warps now; they become schedulable when the
        // block starts running.
        for (const auto &ops : tb.warps) {
            WarpCtx *w = warps.emplace_back(reuse(spareWarps)).get();
            w->tb = tbc;
            w->ops = &ops;
        }

        if (!tb.dmaLoads.empty()) {
            sim_assert(dma != nullptr);
            tbc->dmaPending = unsigned(tb.dmaLoads.size());
            for (const DmaOp &d : tb.dmaLoads) {
                ++_stats.instructions;
                dma->load(d.tile,
                          LocalAddr(tbc->localBase + d.localOffset),
                          [this, tbc]() {
                              if (--tbc->dmaPending == 0)
                                  startBlock(*tbc);
                          });
            }
        } else if (launch_delay > 0) {
            eq.scheduleIn(launch_delay * gpuClockPeriod,
                          [this, tbc]() { startBlock(*tbc); });
        } else {
            startBlock(*tbc);
        }
    }
}

void
ComputeUnit::startBlock(TbCtx &tb)
{
    tb.running = true;
    scheduleTick();
}

void
ComputeUnit::finishBlock(TbCtx &tb)
{
    if (tb.tb->dmaStores.empty()) {
        retireBlock(tb);
        return;
    }
    sim_assert(dma != nullptr);
    tb.draining = true;
    tb.dmaPending = unsigned(tb.tb->dmaStores.size());
    for (const DmaOp &d : tb.tb->dmaStores) {
        ++_stats.instructions;
        dma->store(d.tile, LocalAddr(tb.localBase + d.localOffset),
                   [this, &tb]() {
                       if (--tb.dmaPending == 0)
                           retireBlock(tb);
                   });
    }
}

void
ComputeUnit::retireBlock(TbCtx &tb)
{
    if (stash) {
        stash->endThreadBlock(tb.localBase, tb.tb->localBytes);
        for (std::size_t i = 0; i < tb.tb->addMaps.size(); ++i)
            stash->releaseMap(tb.mapIdx[i]);
    }
    freeLocal(tb.localBase, tb.tb->localBytes);
    ++_stats.threadBlocks;

    // Drop the block's warps and the block itself; their contexts
    // wait in the spares for the next launch.
    retire(warps, spareWarps,
           [&tb](const WarpCtx &w) { return w.tb == &tb; });
    rrIndex = 0;
    const TbCtx *dead = &tb;
    retire(blocks, spareBlocks,
           [dead](const TbCtx &b) { return &b == dead; });

    tryLaunchBlocks();
    checkKernelDone();
}

void
ComputeUnit::checkKernelDone()
{
    if (!kernelActive || !blocks.empty() ||
        nextBlock < kernel->blocks.size()) {
        return;
    }
    kernelActive = false;
    // Every warp finished, so every line access completed.
    sim_assert(lineReqs.live() == 0);

    // Kernel boundary: the stash self-invalidates Valid words (keeps
    // Registered), and the L1 self-invalidates per DeNovo.
    if (stash)
        stash->endKernel();
    l1->selfInvalidate();

    const Cycles cycles =
        (eq.curTick() - kernelStart) / gpuClockPeriod;
    const Counter issued = _stats.instructions - instrAtKernelStart;
    _stats.idleCycles += cycles > issued ? cycles - issued : 0;

    kernelDone();
}

// ---------------------------------------------------------------------
// Warp scheduling
// ---------------------------------------------------------------------

bool
ComputeUnit::warpReady(const WarpCtx &w) const
{
    return !w.finished && !w.blocked && !w.atBarrier &&
           w.tb->running && w.pc < w.ops->size();
}

void
ComputeUnit::scheduleTick()
{
    if (tickScheduled)
        return;
    bool any_ready = false;
    for (const auto &w : warps) {
        if (warpReady(*w)) {
            any_ready = true;
            break;
        }
    }
    if (!any_ready)
        return;
    tickScheduled = true;
    const Tick next = ((eq.curTick() / gpuClockPeriod) + 1) *
                      gpuClockPeriod;
    eq.schedule(next, [this]() { tick(); });
}

void
ComputeUnit::tick()
{
    tickScheduled = false;
    if (warps.empty())
        return;
    // Round-robin issue: one op per cycle.
    const std::size_t n = warps.size();
    for (std::size_t i = 0; i < n; ++i) {
        WarpCtx &w = *warps[(rrIndex + i) % n];
        if (warpReady(w)) {
            rrIndex = (rrIndex + i + 1) % n;
            execute(w);
            break;
        }
    }
    scheduleTick();
}

void
ComputeUnit::unblock(WarpCtx &warp)
{
    warp.blocked = false;
    if (warp.pc >= warp.ops->size())
        onWarpFinished(warp);
    else
        scheduleTick();
}

void
ComputeUnit::onWarpFinished(WarpCtx &warp)
{
    if (warp.finished)
        return;
    warp.finished = true;
    TbCtx *tb = warp.tb;
    sim_assert(tb->liveWarps > 0);
    if (--tb->liveWarps == 0)
        finishBlock(*tb);
}

namespace
{

bool
isLoadOp(OpKind k)
{
    return k == OpKind::GlobalLd || k == OpKind::LocalLd ||
           k == OpKind::StashLd;
}

} // namespace

void
ComputeUnit::execute(WarpCtx &warp)
{
    const WarpOp &op = (*warp.ops)[warp.pc++];
    ++_stats.instructions;
    if (watchdog)
        watchdog->progress();

    // Scoreboard approximation: a run of consecutive loads issues
    // together before the warp blocks (real warps stall on the first
    // *use*, not on load issue), up to a small issue window.
    if (isLoadOp(op.kind)) {
        std::size_t batched = 1;
        executeMem(warp, op);
        while (batched < 4 && warp.pc < warp.ops->size() &&
               isLoadOp((*warp.ops)[warp.pc].kind)) {
            const WarpOp &next = (*warp.ops)[warp.pc++];
            ++_stats.instructions;
            ++batched;
            executeMem(warp, next);
        }
        return;
    }

    switch (op.kind) {
      case OpKind::Compute: {
        ++_stats.computeOps;
        for (auto &a : warp.acc)
            a = std::uint32_t(std::int64_t(a) + op.accDelta);
        warp.blocked = true;
        eq.scheduleIn(Tick(op.cycles) * gpuClockPeriod,
                      [this, &warp]() { unblock(warp); });
        return;
      }
      case OpKind::Barrier: {
        ++_stats.barriers;
        warp.atBarrier = true;
        TbCtx *tb = warp.tb;
        if (++tb->barrierCount >= tb->liveWarps) {
            tb->barrierCount = 0;
            for (auto &w : warps) {
                if (w->tb == tb)
                    w->atBarrier = false;
            }
        }
        // Finished at the last op being a barrier would deadlock;
        // workloads never end a warp on a barrier.
        if (warp.pc >= warp.ops->size())
            onWarpFinished(warp);
        else
            scheduleTick();
        return;
      }
      case OpKind::GlobalSt:
      case OpKind::LocalSt:
      case OpKind::StashSt:
        executeMem(warp, op);
        return;
      case OpKind::Remap: {
        // ChgMap: retarget the slot's mapping (one warp executes it;
        // the program brackets it with barriers).
        sim_assert(stash != nullptr);
        TbCtx *tb = warp.tb;
        const DmaOp &to = tb->tb->retargets[op.index];
        const Cycles cost = stash->chgMap(
            tb->mapIdx[op.mapSlot],
            LocalAddr(tb->localBase + to.localOffset), to.tile);
        warp.blocked = true;
        eq.scheduleIn(cost * gpuClockPeriod,
                      [this, &warp]() { unblock(warp); });
        return;
      }
      case OpKind::DmaXfer: {
        sim_assert(dma != nullptr);
        warp.blocked = true;
        const DmaOp &to = warp.tb->tb->retargets[op.index];
        dma->load(to.tile,
                  LocalAddr(warp.tb->localBase + to.localOffset),
                  [this, &warp]() { unblock(warp); });
        return;
      }
      default:
        panic("unknown op kind");
    }
}

void
ComputeUnit::executeMem(WarpCtx &warp, const WarpOp &op)
{
    switch (op.kind) {
      case OpKind::GlobalLd:
      case OpKind::GlobalSt:
      case OpKind::StashLd:
      case OpKind::StashSt:
        execMemLines(warp, op);
        return;
      case OpKind::LocalLd:
      case OpKind::LocalSt:
        execMemLocal(warp, op);
        return;
      default:
        panic("not a memory op");
    }
}

// ---------------------------------------------------------------------
// Memory paths
// ---------------------------------------------------------------------

void
ComputeUnit::execMemLines(WarpCtx &warp, const WarpOp &op)
{
    const bool to_stash =
        op.kind == OpKind::StashLd || op.kind == OpKind::StashSt;
    const bool is_store =
        op.kind == OpKind::GlobalSt || op.kind == OpKind::StashSt;
    if (to_stash)
        ++(is_store ? _stats.localStores : _stats.localLoads);
    else
        ++(is_store ? _stats.globalStores : _stats.globalLoads);
    sim_assert(!to_stash || stash != nullptr);
    const MapIndex map_idx = !to_stash || op.mapSlot == 0xff
                                 ? unmappedIndex
                                 : warp.tb->mapIdx[op.mapSlot];

    // Coalesce the lanes by line; a record's payload is its lane and
    // store value.  Stash ops address the block's 32-bit local space.
    sim_assert(op.lanes <= warp.acc.size());
    const LaneAddrs addrs(warp.tb->lanes, op);
    GroupByKey<Addr, std::pair<unsigned, std::uint32_t>> lines;
    for (unsigned lane = 0; lane < op.lanes; ++lane) {
        const Addr a =
            to_stash ? Addr(LocalAddr(warp.tb->localBase + addrs[lane]))
                     : addrs[lane];
        lines.add(lineBase(a), wordBit(lineWord(a)),
                  {lane, is_store && op.storeAcc ? warp.acc[lane] : op.value});
    }

    warp.blocked = true;
    // Every line's access is pending before the first is issued.
    lines.forEach([&](Addr, WordMask, auto) { ++warp.pendingMem; });
    const std::uint64_t seq = ++warp.memSeq;
    lines.forEach([&](Addr line, WordMask mask, auto lanes) {
        // The line's record maps each loading lane to its word; the
        // completion carries only the record's index.
        const std::uint32_t req = lineReqs.take();
        LineReq &r = lineReqs[req];
        r = LineReq{&warp, seq};
        LineData store;
        for (const auto &rec : lanes) {
            // Each record carries exactly one word bit.
            const unsigned w = unsigned(std::countr_zero(rec.bits));
            const unsigned lane = rec.payload.first;
            if (is_store) {
                store.w[w] = rec.payload.second;
            } else {
                r.loadLanes |= std::uint32_t{1} << lane;
                r.laneWord[lane] = std::uint8_t(w);
            }
        }
        auto done = [this, req](const LineData &d) { finishLine(req, d); };
        const LineData *store_data = is_store ? &store : nullptr;
        if (to_stash) {
            stash->access(LocalAddr(line), mask, is_store, store_data,
                          map_idx, std::move(done));
        } else {
            l1->access(line, mask, is_store, store_data, std::move(done));
        }
    });
}

void
ComputeUnit::finishLine(std::uint32_t req, const LineData &d)
{
    LineReq &r = lineReqs[req];
    WarpCtx &warp = *r.warp;
    for (std::uint32_t lanes = r.loadLanes; lanes; lanes &= lanes - 1) {
        const unsigned lane = unsigned(std::countr_zero(lanes));
        if (r.seq >= warp.accSeq[lane]) {
            warp.acc[lane] = d.w[r.laneWord[lane]];
            warp.accSeq[lane] = r.seq;
        }
    }
    lineReqs.release(req);
    if (--warp.pendingMem == 0)
        unblock(warp);
}

void
ComputeUnit::execMemLocal(WarpCtx &warp, const WarpOp &op)
{
    const bool is_store = op.kind == OpKind::LocalSt;
    if (is_store)
        ++_stats.localStores;
    else
        ++_stats.localLoads;

    if (spad) {
        const LocalAddr base = warp.tb->localBase;
        const LaneAddrs addrs(warp.tb->lanes, op);
        const std::uint64_t seq = ++warp.memSeq;
        for (unsigned lane = 0; lane < op.lanes; ++lane) {
            const LocalAddr a = LocalAddr(base + addrs[lane]);
            if (is_store) {
                spad->write(a,
                            op.storeAcc ? warp.acc[lane] : op.value);
            } else {
                warp.acc[lane] = spad->read(a);
                warp.accSeq[lane] = seq;
            }
        }
        warp.blocked = true;
        warp.pendingMem += 1;
        eq.scheduleIn(cfg.localHitCycles * gpuClockPeriod,
                      [this, &warp]() {
                          if (--warp.pendingMem == 0)
                              unblock(warp);
                      });
        return;
    }

    // No scratchpad present (stash configurations running
    // scratchpad-style code): the stash serves it in temporary /
    // global-unmapped mode.
    sim_assert(stash != nullptr);
    WarpOp stash_op = op;
    stash_op.kind = is_store ? OpKind::StashSt : OpKind::StashLd;
    stash_op.mapSlot = 0xff;
    execMemLines(warp, stash_op);
}

void
ComputeUnit::assertDrained() const
{
    sim_assert(!kernelActive);
    sim_assert(blocks.empty());
    sim_assert(warps.empty());
    sim_assert(lineReqs.live() == 0);
}

} // namespace stashsim
