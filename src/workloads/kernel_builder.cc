#include "workloads/kernel_builder.hh"

namespace stashsim
{

TbBuilder::TbBuilder(MemOrg org, unsigned num_warps, unsigned warp_size)
    : org(org), numWarps(num_warps), warpSize(warp_size)
{
    sim_assert(num_warps > 0 && warp_size <= 32);
    blk.warps.resize(num_warps);
}

bool
TbBuilder::staged(unsigned t) const
{
    const TileUse &use = tiles.at(t);
    if (org == MemOrg::Cache)
        return false;
    if (use.temporary)
        return true;
    if (!use.originallyGlobal)
        return true;
    if (!use.convertible)
        return false;
    // Originally-global data is staged only by the "G" variants.
    return org == MemOrg::ScratchG || org == MemOrg::ScratchGD ||
           org == MemOrg::StashG;
}

OpKind
TbBuilder::localLoadKind() const
{
    return usesStash(org) ? OpKind::StashLd : OpKind::LocalLd;
}

OpKind
TbBuilder::localStoreKind() const
{
    return usesStash(org) ? OpKind::StashSt : OpKind::LocalSt;
}

unsigned
TbBuilder::addTile(const TileUse &use)
{
    sim_assert(use.tile.wellFormed());
    tiles.push_back(use);
    currentTile.push_back(use.tile);
    const unsigned t = unsigned(tiles.size() - 1);

    std::uint8_t slot = 0xff;
    if (staged(t)) {
        localBytes = std::max(
            localBytes, use.localOffset + use.tile.mappedBytes());
        if (usesStash(org) && !use.temporary) {
            sim_assert(nextMapSlot < 4); // Table 2: 4 maps per block
            slot = nextMapSlot++;
        }
    }
    mapSlot.push_back(slot);
    return t;
}

void
TbBuilder::compute(unsigned warp, std::uint16_t cycles,
                   std::int32_t acc_delta)
{
    blk.warps.at(warp).push_back(computeOp(cycles, acc_delta));
}

void
TbBuilder::accessTile(unsigned warp, unsigned t,
                      std::span<const std::uint32_t> elems,
                      bool is_store, bool store_acc,
                      std::uint32_t value, unsigned word)
{
    sim_assert(!elems.empty() && elems.size() <= warpSize);
    const TileUse &use = tiles.at(t);
    auto &stream = blk.warps.at(warp);
    std::array<Addr, 32> addrs;
    const std::span<const Addr> lanes(addrs.data(), elems.size());

    WarpOp op;
    if (staged(t)) {
        // Direct local addressing: no index-computation instruction.
        for (std::size_t i = 0; i < elems.size(); ++i) {
            addrs[i] = Addr(use.localOffset) +
                       Addr(elems[i]) * use.tile.fieldSize +
                       Addr(word) * wordBytes;
        }
        op = blk.memOp(is_store ? localStoreKind() : localLoadKind(),
                       lanes, mapSlot[t]);
    } else {
        // Global access: the core computes the (AoS) address itself.
        stream.push_back(computeOp(1));
        const TileSpec &cur = currentTile.at(t);
        for (std::size_t i = 0; i < elems.size(); ++i) {
            addrs[i] = cur.globalAddrOf(elems[i] * cur.fieldSize +
                                        word * wordBytes);
        }
        op = blk.memOp(is_store ? OpKind::GlobalSt : OpKind::GlobalLd,
                       lanes);
    }
    op.storeAcc = store_acc;
    op.value = value;
    stream.push_back(op);
}

void
TbBuilder::barrier()
{
    for (auto &w : blk.warps)
        w.push_back(barrierOp());
}

void
TbBuilder::restage(unsigned t, const TileSpec &new_tile)
{
    const TileUse &use = tiles.at(t);
    sim_assert(!use.writeOut && !use.temporary);
    currentTile.at(t) = new_tile;
    if (!staged(t))
        return; // cache path: only the addresses change

    barrier();
    switch (org) {
      case MemOrg::Scratch:
      case MemOrg::ScratchG: {
        TileUse tmp = use;
        tmp.tile = new_tile;
        emitCopyLoop(blk.warps, tmp, true);
        break;
      }
      case MemOrg::ScratchGD:
      case MemOrg::Stash:
      case MemOrg::StashG: {
        // One warp re-points the tile: a DMA gather (ScratchGD) or a
        // ChgMap of the tile's map slot (stash).
        WarpOp op;
        op.kind = org == MemOrg::ScratchGD ? OpKind::DmaXfer
                                           : OpKind::Remap;
        op.mapSlot = mapSlot.at(t);
        op.index = std::uint32_t(blk.retargets.size());
        blk.retargets.push_back(DmaOp{use.localOffset, new_tile});
        blk.warps.at(0).push_back(op);
        break;
      }
      case MemOrg::Cache:
        break;
    }
    barrier();
}

void
TbBuilder::emitCopyLoop(std::vector<std::vector<WarpOp>> &streams,
                        const TileUse &use, bool copy_in)
{
    // Elements are divided contiguously among the warps; each loop
    // iteration moves one element per lane: index arithmetic, a
    // global access, and a local access (Figure 1a's two explicit
    // parallel-for loops).
    const std::uint32_t n = use.tile.numElements();
    const std::uint32_t per_warp = (n + numWarps - 1) / numWarps;
    const std::uint32_t field_words = use.tile.fieldSize / wordBytes;

    for (unsigned w = 0; w < numWarps; ++w) {
        const std::uint32_t begin = w * per_warp;
        const std::uint32_t end = std::min(n, begin + per_warp);
        for (std::uint32_t e = begin; e < end; e += warpSize) {
            const std::uint32_t lanes = std::min<std::uint32_t>(
                warpSize, end - e);
            for (std::uint32_t fw = 0; fw < field_words; ++fw) {
                std::array<Addr, 32> global_addrs, local_addrs;
                for (std::uint32_t l = 0; l < lanes; ++l) {
                    const std::uint32_t off =
                        (e + l) * use.tile.fieldSize + fw * wordBytes;
                    global_addrs[l] = use.tile.globalAddrOf(off);
                    local_addrs[l] = Addr(use.localOffset) + off;
                }
                const std::span<const Addr> global(global_addrs.data(),
                                                   lanes);
                const std::span<const Addr> local(local_addrs.data(),
                                                  lanes);
                streams[w].push_back(computeOp(1)); // index arithmetic
                if (copy_in) {
                    streams[w].push_back(
                        blk.memOp(OpKind::GlobalLd, global));
                    streams[w].push_back(
                        blk.storeAccOp(localStoreKind(), local, 0xff));
                } else {
                    streams[w].push_back(
                        blk.memOp(localLoadKind(), local, 0xff));
                    streams[w].push_back(
                        blk.storeAccOp(OpKind::GlobalSt, global));
                }
            }
        }
    }
}

ThreadBlock
TbBuilder::build()
{
    blk.localBytes = localBytes;

    std::vector<std::vector<WarpOp>> prologue(numWarps);
    std::vector<std::vector<WarpOp>> epilogue(numWarps);
    bool has_prologue = false;
    bool has_epilogue = false;

    for (unsigned t = 0; t < tiles.size(); ++t) {
        const TileUse &use = tiles[t];
        if (!staged(t) || use.temporary)
            continue;

        switch (org) {
          case MemOrg::Scratch:
          case MemOrg::ScratchG:
            if (use.readIn) {
                emitCopyLoop(prologue, use, true);
                has_prologue = true;
            }
            if (use.writeOut) {
                emitCopyLoop(epilogue, use, false);
                has_epilogue = true;
            }
            break;
          case MemOrg::ScratchGD:
            if (use.readIn) {
                blk.dmaLoads.push_back(DmaOp{use.localOffset, use.tile});
                has_prologue = true;
            }
            if (use.writeOut)
                blk.dmaStores.push_back(
                    DmaOp{use.localOffset, use.tile});
            break;
          case MemOrg::Stash:
          case MemOrg::StashG:
            blk.addMaps.push_back(AddMapOp{use.localOffset, use.tile});
            break;
          case MemOrg::Cache:
            break;
        }
    }

    // Assemble per-warp streams: copy-in prologue / barrier / body /
    // barrier / copy-out epilogue.  Without copy loops the body is the
    // stream already.
    const bool copy_loops = (org == MemOrg::Scratch ||
                             org == MemOrg::ScratchG) &&
                            (has_prologue || has_epilogue);
    for (unsigned w = 0; w < numWarps; ++w) {
        auto &s = blk.warps[w];
        if (copy_loops) {
            std::vector<WarpOp> body;
            body.swap(s);
            s.reserve(prologue[w].size() + body.size() +
                      epilogue[w].size() + 3);
            if (has_prologue) {
                s.insert(s.end(), prologue[w].begin(), prologue[w].end());
                s.push_back(barrierOp());
            }
            s.insert(s.end(), body.begin(), body.end());
            if (has_epilogue) {
                s.push_back(barrierOp());
                s.insert(s.end(), epilogue[w].begin(), epilogue[w].end());
            }
        }
        if (s.empty())
            s.push_back(computeOp(1));
        // A warp must not end on a barrier (CU invariant).
        if (s.back().kind == OpKind::Barrier)
            s.push_back(computeOp(1));
    }
    // Exactly sized: a pool left at its doubling capacity holds up to
    // twice the block's addresses for the whole run (DESIGN.md §9.7).
    blk.addrs.shrink_to_fit();
    return std::move(blk);
}

LaneList
laneElems(std::uint32_t first, std::uint32_t count, std::uint32_t stride)
{
    LaneList v;
    for (std::uint32_t i = 0; i < count; ++i)
        v.push_back(first + i * stride);
    return v;
}

} // namespace stashsim
