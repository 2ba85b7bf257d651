#include "core/stash.hh"

#include <algorithm>
#include <bit>
#include <ostream>
#include <span>
#include <sstream>
#include <string>

#include "mem/group_by_key.hh"
#include "sim/log.hh"
#include "verify/protocol_checker.hh"

namespace stashsim
{

Stash::Stash(EventQueue &eq, Fabric &fabric, PageTable &pt, CoreId owner,
             NodeId node, const Params &p)
    : eq(eq), fabric(fabric), owner(owner), node(node), params(p),
      data(p.bytes / wordBytes, 0),
      state(p.bytes / wordBytes, WordState::Invalid),
      chunks(p.bytes / p.chunkBytes), map(p.mapEntries),
      vpMap(pt, p.vpEntries), lineTouched(p.bytes / lineBytes, 0)
{
    sim_assert(p.chunkBytes % lineBytes == 0 || lineBytes %
               p.chunkBytes == 0);
    // Bounded by the miss-slot count; never rehashes on the fill path.
    pendingFills.reserve(p.mshrs);
}

namespace
{

/** Word index traced via STASHSIM_TRACE_WORD="core:wordIdx". */
bool
traceWord(CoreId core, std::uint32_t w)
{
    static const std::pair<unsigned long, unsigned long> t = []() {
        const char *env = std::getenv("STASHSIM_TRACE_WORD");
        if (!env)
            return std::make_pair(~0ul, ~0ul);
        unsigned long c = 0, wi = 0;
        std::sscanf(env, "%lu:%lu", &c, &wi);
        return std::make_pair(c, wi);
    }();
    return t.first == core && t.second == w;
}

/**
 * Calls visit(w, pa) for each stash word w in [begin, end) of entry
 * @p idx (@p e) that keep(w) selects, in ascending order.  A run of
 * visited words on one virtual page shares one VP-map translation;
 * the VP-map still counts every word.  Returns the words visited.
 */
template <class Keep, class Visit>
unsigned
translateWords(VpMap &vp_map, const StashMapEntry &e, MapIndex idx,
               std::uint32_t begin, std::uint32_t end, Keep keep,
               Visit visit)
{
    Addr vpage = 0;
    PhysAddr ppage = 0;
    unsigned words = 0;
    for (std::uint32_t w = begin; w < end; ++w) {
        if (!keep(w))
            continue;
        const Addr ga = e.tile.globalAddrOf(w * wordBytes - e.stashBase);
        if (words > 0 && pageBase(ga) == vpage) {
            vp_map.countRunWord();
        } else {
            vpage = pageBase(ga);
            ppage = vp_map.translate(vpage, idx);
        }
        visit(w, ppage + (ga - vpage));
        ++words;
    }
    return words;
}

} // namespace

void
Stash::setState(std::uint32_t w, WordState s, const char *why)
{
    if (state[w] == s)
        return;
    if (traceWord(owner, w)) {
        inform("stash core ", owner, " word ", w, " ",
               wordStateName(state[w]), " -> ", wordStateName(s),
               " (", why, ")");
    }
    state[w] = s;
    // Wakes the parked loads on this line or copying from it.
    lineTouched[w / wordsPerLine] = ++touchClock;
}

void
Stash::sendRegReq(PhysAddr line_pa, WordMask mask, MapIndex idx)
{
    Msg reg;
    reg.type = MsgType::RegReq;
    reg.requester = owner;
    reg.requesterUnit = Unit::Stash;
    reg.linePA = line_pa;
    reg.mask = mask;
    reg.ownerIsStash = true;
    reg.stashMapIdx = idx;
    fabric.send(node, fabric.nodeOfLlc(line_pa), Unit::Llc, std::move(reg));
}

// ---------------------------------------------------------------------
// Software interface: AddMap / ChgMap
// ---------------------------------------------------------------------

Stash::AddMapResult
Stash::addMap(LocalAddr stash_base, const TileSpec &tile)
{
    ++_stats.addMaps;
    // Remapping may drop VP-map pages, rewrite entries and move
    // allocIdx: every parked load re-tries at the next release.
    mapTouched = ++touchClock;
    if (const char *why = mappingError(stash_base, tile, params.bytes,
                                       params.chunkBytes)) {
        fatal("AddMap: ", why);
    }

    Cycles cost = 1;
    const std::uint32_t first_word = stash_base / wordBytes;
    const std::uint32_t last_word =
        (stash_base + tile.mappedBytes() - 1) / wordBytes;

    // Section 4.5: replication search happens before the new entry is
    // allocated, so the new entry cannot match itself.
    std::optional<MapIndex> match;
    if (params.replicationOpt)
        match = map.findMatch(tile);

    const MapIndex idx = map.advanceTail();
    StashMapEntry &e = map.entry(idx);

    // Replacing a still-valid entry drains every chunk it still
    // claims (Section 4.2, AddMap); if dirty data was outstanding the
    // core blocks until the writebacks are issued.
    if (e.valid) {
        if (e.dirtyData > 0) {
            ++_stats.mapReplacementStalls;
            cost += 64; // the stall the scout pointer would hide
        }
        writebackMapEntry(idx);
    }
    // VP-map entries back-pointed at the replaced entry die with it.
    vpMap.release(idx);

    // Same-location reuse additionally requires the matched entry to
    // still be the *current occupant* of the region: if another
    // mapping lived there in between, the data present is not the
    // tile's and must be reclaimed normally.
    bool reuse_same_location =
        match && map.entry(*match).stashBase == stash_base;
    if (reuse_same_location) {
        for (unsigned c = chunkOf(first_word); c <= chunkOf(last_word); ++c) {
            if (chunks[c].allocIdx != *match) {
                reuse_same_location = false;
                break;
            }
        }
    }

    e.valid = true;
    e.pinned = true;
    e.stashBase = stash_base;
    e.tile = tile;
    e.dirtyData = 0;
    e.reuseBit = match.has_value();
    e.reuseIdx = match.value_or(0);

    installVpEntries(tile, idx);

    // The new entry now owns the region: remote-request resolution
    // only trusts a (entry, word) pair when the word's chunk records
    // that entry as its latest allocator (stale recycled entries can
    // otherwise alias other data living at the same stash words).
    for (unsigned c = chunkOf(first_word); c <= chunkOf(last_word); ++c)
        chunks[c].allocIdx = idx;

    // Reclaim the stash range for the new mapping: trigger the lazy
    // writebacks of whatever previously lived there, then invalidate.
    // When the mapping is an exact replica living at the same stash
    // location (cross-kernel reuse), the data stays put: no
    // writebacks, no invalidation, no misses, and — because the
    // directory's registration (core, unit) is unchanged — no new
    // registration traffic.  The directory's stash-map *index* hint
    // does go stale when the old entry is eventually recycled; remote
    // requests then fall back to the VA search in resolveVa() (the
    // model's equivalent of the paper's Section 4.5 re-registration
    // rule, without its traffic).
    if (!reuse_same_location) {
        for (unsigned c = chunkOf(first_word); c <= chunkOf(last_word); ++c) {
            if (chunks[c].dirty || chunks[c].writeback)
                writebackChunk(c);
        }
        for (std::uint32_t w = first_word; w <= last_word; ++w) {
            if (state[w] == WordState::Registered) {
                panic("AddMap reclaim would drop a registered word "
                      "without writeback: word=", w, " chunk=",
                      chunkOf(w), " chunkMapIdx=",
                      unsigned(chunks[chunkOf(w)].mapIdx),
                      " chunkDirty=", chunks[chunkOf(w)].dirty,
                      " chunkWb=", chunks[chunkOf(w)].writeback,
                      " newIdx=", unsigned(idx));
            }
            setState(w, WordState::Invalid, "addmap-reclaim");
        }
    }

    return AddMapResult{idx, cost};
}

Cycles
Stash::chgMap(MapIndex idx, LocalAddr stash_base, const TileSpec &tile)
{
    ++_stats.chgMaps;
    mapTouched = ++touchClock;
    StashMapEntry &e = map.entry(idx);
    if (!e.valid)
        fatal("ChgMap: invalid map entry");

    Cycles cost = 1;
    const bool same_addresses =
        e.stashBase == stash_base && e.tile == tile;

    if (!same_addresses) {
        // New global addresses: write back the old mapping's dirty
        // data (if coherent) and invalidate the remapped locations.
        writebackMapEntry(idx);
        const std::uint32_t first_word = e.stashBase / wordBytes;
        const std::uint32_t last_word =
            (e.stashBase + e.tile.mappedBytes() - 1) / wordBytes;
        for (std::uint32_t w = first_word; w <= last_word; ++w)
            setState(w, WordState::Invalid, "chgmap-remap");
        e.stashBase = stash_base;
        e.tile = tile;
        e.dirtyData = 0;
        installVpEntries(tile, idx);
        return cost;
    }

    // Same addresses, (possibly) different operation mode.
    if (e.tile.isCoherent && !tile.isCoherent) {
        // Coherent -> non-coherent: the old stores were globally
        // visible, so push them out before going dark.
        writebackMapEntry(idx);
    } else if (!e.tile.isCoherent && tile.isCoherent) {
        // Non-coherent -> coherent: register every dirty word so the
        // directory knows this stash now holds the latest copy.
        GroupByKey<PhysAddr> reg_lines;
        _stats.vpMapAccesses += translateWords(
            vpMap, e, idx, e.stashBase / wordBytes,
            (e.stashBase + e.tile.mappedBytes()) / wordBytes,
            [&](std::uint32_t w) {
                const Chunk &ch = chunks[chunkOf(w)];
                return (ch.dirty || ch.writeback) &&
                       state[w] != WordState::Invalid;
            },
            [&](std::uint32_t w, PhysAddr pa) {
                setState(w, WordState::Registered, "chgmap-coherent");
                if (checker) {
                    // The conversion makes the stash copy the globally
                    // visible one: commit it to the golden image.
                    checker->onStore(pa, data[w]);
                }
                reg_lines.add(lineBase(pa), wordBit(lineWord(pa)));
            });
        reg_lines.forEach([&](PhysAddr line_pa, WordMask mask, auto) {
            sendRegReq(line_pa, mask, idx);
        });
    }
    e.tile.isCoherent = tile.isCoherent;
    return cost;
}

void
Stash::installVpEntries(const TileSpec &tile, MapIndex idx)
{
    // Collect the pages the tile's rows touch.
    for (std::uint32_t row = 0; row < tile.numStrides; ++row) {
        const Addr row_base = tile.globalBase + Addr(row) *
                              tile.strideSize;
        const Addr row_end = row_base +
                             Addr(tile.rowSize - 1) * tile.objectSize +
                             tile.fieldSize;
        for (Addr p = pageBase(row_base); p < row_end; p += pageBytes) {
            // Refreshing an existing translation costs no space; only
            // a genuinely new page can trigger entry retirement.
            if (!vpMap.contains(p) && vpMap.full())
                evictEntriesForVpSpace();
            vpMap.install(p, idx);
        }
    }
}

void
Stash::evictEntriesForVpSpace()
{
    // Section 4.1.4: when the VP-map has no room, retire stash-map
    // entries -- oldest first, i.e., in circular order from the tail.
    // Entries of still-resident thread blocks are pinned and skipped;
    // if the live mappings alone exceed the VP-map, the structure
    // overflows (counted and warned, once) rather than corrupting a
    // live translation.
    for (unsigned i = 0; i < map.capacity() && vpMap.full(); ++i) {
        const MapIndex j =
            MapIndex((map.tailIndex() + i) % map.capacity());
        StashMapEntry &e = map.entry(j);
        if (!e.valid || e.pinned)
            continue;
        writebackMapEntry(j);
        e.valid = false;
        vpMap.release(j);
    }
    if (vpMap.full()) {
        ++_stats.vpMapOverflows;
        if (_stats.vpMapOverflows == 1) {
            warn("VP-map capacity (", vpMap.capacity(), ") exceeded "
                 "by live mappings; allowing overflow");
        }
    }
}

// ---------------------------------------------------------------------
// Access path
// ---------------------------------------------------------------------

void
Stash::access(LocalAddr line_addr, WordMask mask, bool is_store,
              const LineData *store_data, MapIndex map_idx,
              AccessDone done)
{
    sim_assert(line_addr % lineBytes == 0);
    sim_assert(mask != 0);
    sim_assert(line_addr + lineBytes <= params.bytes);
    const std::uint32_t word0 = line_addr / wordBytes;

    // ----- Temporary / global-unmapped modes: plain scratchpad -----
    if (map_idx == unmappedIndex) {
        if (is_store) {
            sim_assert(store_data);
            for (unsigned w = 0; w < wordsPerLine; ++w) {
                if (!(mask & wordBit(w)))
                    continue;
                data[word0 + w] = store_data->w[w];
                setState(word0 + w, WordState::Valid, "unmapped-store");
            }
            ++_stats.storeHits;
            _stats.hitWords += popcount(mask);
        } else {
            ++_stats.loadHits;
            _stats.hitWords += popcount(mask);
        }
        complete(line_addr, std::move(done));
        return;
    }

    StashMapEntry &e = map.entry(map_idx);
    sim_assert(e.valid);

    // ----- Stores -----
    if (is_store) {
        sim_assert(store_data);
        WordMask need_reg = 0;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (!(mask & wordBit(w)))
                continue;
            data[word0 + w] = store_data->w[w];
            if (checker) {
                // Side-effect-free probe: the timed translation (and
                // its statistics) happens below, for need_reg words
                // only, as in the unchecked simulation.
                const std::uint32_t off =
                    (word0 + w) * wordBytes - e.stashBase;
                PhysAddr pa;
                if (vpMap.probe(e.tile.globalAddrOf(off), &pa)) {
                    if (e.tile.isCoherent)
                        checker->onStore(pa, store_data->w[w]);
                    else
                        checker->onOpaqueStore(pa);
                }
            }
            if (e.tile.isCoherent) {
                if (state[word0 + w] != WordState::Registered) {
                    setState(word0 + w, WordState::Registered,
                             "store");
                    need_reg |= wordBit(w);
                }
            } else {
                setState(word0 + w, WordState::Valid,
                         "noncoherent-store");
            }
            markDirty(word0 + w, map_idx);
        }

        _stats.hitWords += popcount(WordMask(mask & ~need_reg));
        _stats.missWords += popcount(need_reg);
        if (need_reg) {
            ++_stats.storeMisses;
            ++_stats.translations;
            // The store completes locally; its registration request
            // must enter the memory system *now*, in program order
            // with any later writeback of the same words (a lazy
            // writeback draining this chunk after the block retires
            // must reach the directory after the registration, or the
            // directory would end up registering data the stash no
            // longer holds).  The translation latency is off the
            // store's critical path.
            GroupByKey<PhysAddr> reg_lines;
            _stats.vpMapAccesses += translateWords(
                vpMap, e, map_idx, word0, word0 + wordsPerLine,
                [&](std::uint32_t w) { return need_reg & wordBit(w - word0); },
                [&](std::uint32_t, PhysAddr pa) {
                    reg_lines.add(lineBase(pa), wordBit(lineWord(pa)));
                });
            reg_lines.forEach([&](PhysAddr line_pa, WordMask m, auto) {
                if (tracePA(line_pa)) {
                    inform("stash core ", owner, " store RegReq "
                           "pa=0x", std::hex, line_pa, std::dec,
                           " mask=0x", std::hex, m, std::dec,
                           " idx=", unsigned(map_idx));
                }
                sendRegReq(line_pa, m, map_idx);
            });
        } else {
            ++_stats.storeHits;
        }
        complete(line_addr, std::move(done));
        return;
    }

    // ----- Loads -----
    Shortfall lacked;
    if (tryLoad(line_addr, mask, map_idx, done, lacked))
        return;
    parked.push_back(
        Parked{nextArrival++, line_addr, mask, map_idx, std::move(done)});
    file(parked.back(), lacked);
}

bool
Stash::tryLoad(LocalAddr line_addr, WordMask mask, MapIndex map_idx,
               AccessDone &done, Shortfall &lacked)
{
    const std::uint32_t word0 = line_addr / wordBytes;
    StashMapEntry &e = map.entry(map_idx);
    sim_assert(e.valid);

    WordMask missing = 0;
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        if ((mask & wordBit(w)) &&
            state[word0 + w] == WordState::Invalid) {
            missing |= wordBit(w);
        }
    }

    // Section 4.5: serve misses from a replicated older mapping.
    if (missing && e.reuseBit) {
        const StashMapEntry &old = map.entry(e.reuseIdx);
        if (old.valid && old.tile == e.tile) {
            for (unsigned w = 0; w < wordsPerLine; ++w) {
                if (!(missing & wordBit(w)))
                    continue;
                const std::uint32_t off =
                    (word0 + w) * wordBytes - e.stashBase;
                const std::uint32_t old_word =
                    (old.stashBase + off) / wordBytes;
                if (chunks[chunkOf(old_word)].allocIdx != e.reuseIdx)
                    continue; // the replica's region was reused
                if (state[old_word] == WordState::Invalid) {
                    // Not yet readable: a parked load watches it.
                    auto &lines = lacked.replicaLines;
                    if (lines[0] == noLine)
                        lines[0] = old_word / wordsPerLine;
                    lines[1] = old_word / wordsPerLine;
                } else {
                    data[word0 + w] = data[old_word];
                    setState(word0 + w, WordState::Valid,
                             "replication-copy");
                    missing &= WordMask(~wordBit(w));
                    ++_stats.replicationHits;
                }
            }
        }
    }

    if (!missing) {
        ++_stats.loadHits;
        _stats.hitWords += popcount(mask);
        complete(line_addr, std::move(done));
        return true;
    }

    // Translate the missing words and group them by physical line;
    // each record's payload is its stash word.
    GroupByKey<PhysAddr, std::uint32_t> miss_lines;
    translateWords(
        vpMap, e, map_idx, word0, word0 + wordsPerLine,
        [&](std::uint32_t w) { return missing & wordBit(w - word0); },
        [&](std::uint32_t w, PhysAddr pa) {
            miss_lines.add(lineBase(pa), wordBit(lineWord(pa)), w);
        });

    // Miss-slot (MSHR) limit: count the new lines this access needs.
    miss_lines.forEach([&](PhysAddr line_pa, WordMask, auto) {
        lacked.missLines[lacked.numMissLines++] = line_pa;
        if (!pendingFills.contains(line_pa))
            ++lacked.need;
    });
    if (pendingFills.size() + lacked.need > params.mshrs &&
        lacked.need > 0) {
        return false;
    }

    ++_stats.loadMisses;
    ++_stats.translations;
    _stats.hitWords += popcount(WordMask(mask & ~missing));
    _stats.missWords += popcount(missing);
    _stats.vpMapAccesses += popcount(missing);

    const std::uint32_t waiter = waiters.take();
    Waiter &wt = waiters[waiter];
    wt.remaining = popcount(missing);
    wt.lineAddr = line_addr;
    wt.done = std::move(done);

    // Merge with in-flight fills (MSHR behaviour): words another
    // access already requested are waited on, not fetched twice.
    const std::size_t queued = toRequest.size();
    miss_lines.forEach([&](PhysAddr line_pa, WordMask m, auto recs) {
        auto it = pendingFills.find(line_pa);
        if (it == pendingFills.end()) {
            it = addPendingFill(line_pa);
            linePending(line_pa);
        }
        std::vector<PendingWord> &fills = it->second;
        WordMask inflight = 0;
        for (const PendingWord &pw : fills)
            inflight |= wordBit(pw.wordInLine);
        if (m & ~inflight)
            toRequest.emplace_back(line_pa, WordMask(m & ~inflight));
        // Each record carries exactly one word bit.
        for (const auto &r : recs) {
            fills.push_back(PendingWord{
                r.payload, unsigned(std::countr_zero(r.bits)), waiter});
        }
    });

    const Tick xlat = params.translationCycles * params.clockPeriod;
    eq.scheduleIn(xlat, [this, n = toRequest.size() - queued]() {
        sendReadReqs(n);
    });
    return true;
}

Stash::PendingFills::iterator
Stash::addPendingFill(PhysAddr line_pa)
{
    if (spareFills.empty())
        return pendingFills.try_emplace(line_pa).first;
    PendingFills::node_type fill = std::move(spareFills.back());
    spareFills.pop_back();
    sim_assert(fill.mapped().empty());
    fill.key() = line_pa;
    return pendingFills.insert(std::move(fill)).position;
}

void
Stash::sendReadReqs(std::size_t n)
{
    sim_assert(toRequestHead + n <= toRequest.size());
    for (std::size_t i = toRequestHead; i < toRequestHead + n; ++i) {
        const auto [line_pa, m] = toRequest[i];
        Msg req;
        req.type = MsgType::ReadReq;
        req.requester = owner;
        req.requesterUnit = Unit::Stash;
        req.linePA = line_pa;
        req.mask = m;
        req.wordsOnly = true; // compact: only the useful words
        fabric.send(node, fabric.nodeOfLlc(line_pa), Unit::Llc,
                    std::move(req));
    }
    toRequestHead += n;
    // Drop the sent prefix once it is half the queue, so each entry
    // is moved O(1) times.
    if (2 * toRequestHead >= toRequest.size()) {
        toRequest.erase(toRequest.begin(),
                        toRequest.begin() + std::ptrdiff_t(toRequestHead));
        toRequestHead = 0;
    }
}

// ---------------------------------------------------------------------
// Wait list (DESIGN.md §9.4)
// ---------------------------------------------------------------------

void
Stash::file(Parked &p, const Shortfall &lacked)
{
    p.lacked = lacked;
    p.triedAt = touchClock;
}

void
Stash::linePending(PhysAddr line_pa)
{
    for (Parked &p : parked) {
        const std::span lines(p.lacked.missLines.data(),
                              p.lacked.numMissLines);
        if (p.waiting && std::ranges::find(lines, line_pa) != lines.end())
            p.linePending = true;
    }
}

bool
Stash::wakeDue(const Parked &p) const
{
    const auto touched = [&](std::uint32_t line) {
        return line != noLine && lineTouched[line] > p.triedAt;
    };
    return pendingFills.size() + p.lacked.need <= params.mshrs ||
           p.linePending || mapTouched > p.triedAt ||
           touched(p.lineAddr / lineBytes) ||
           touched(p.lacked.replicaLines[0]) ||
           touched(p.lacked.replicaLines[1]);
}

void
Stash::wake()
{
    // Re-try, in arrival order, every parked load whose outcome can
    // have changed since its last try: it fits the free slots, a word
    // of its line or replica line changed state, a miss line became
    // pending, or a remap ran.  Any other re-try would find the same
    // missing words, translations and replica, and at least as many
    // new lines, so it would re-defer with no side effect.  A touch
    // made here reaches later arrivals in this wake and earlier ones
    // at the next release, as a replay of the whole list would.
    // Nothing here parks a new load, so the vector does not grow.
    for (Parked &p : parked) {
        if (!wakeDue(p))
            continue;
        p.linePending = false;
        Shortfall lacked;
        if (tryLoad(p.lineAddr, p.mask, p.mapIdx, p.done, lacked)) {
            p.waiting = false;
        } else {
            file(p, lacked);
        }
    }
    std::erase_if(parked, [](const Parked &p) { return !p.waiting; });
}

void
Stash::markDirty(std::uint32_t word, MapIndex map_idx)
{
    Chunk &ch = chunks[chunkOf(word)];
    if (!ch.dirty && !ch.writeback) {
        // Clean chunk: claim it for this mapping and count it in the
        // entry's #DirtyData.
        ch.dirty = true;
        ch.mapIdx = map_idx;
        ++map.entry(map_idx).dirtyData;
        return;
    }
    ch.dirty = true;
    if (ch.mapIdx != map_idx) {
        // The chunk migrates to the newer mapping (same-location
        // reuse across kernels): move the #DirtyData accounting.
        StashMapEntry &old = map.entry(ch.mapIdx);
        if (old.dirtyData > 0)
            --old.dirtyData;
        else if (checker)
            checker->onDirtyDataUnderflow(owner, ch.mapIdx);
        ++map.entry(map_idx).dirtyData;
        ch.mapIdx = map_idx;
    }
}

void
Stash::complete(LocalAddr line_addr, AccessDone done)
{
    LineData snap = snapshotLine(line_addr);
    eq.scheduleIn(params.hitCycles * params.clockPeriod,
                  [done = std::move(done), snap]() { done(snap); });
}

LineData
Stash::snapshotLine(LocalAddr line_addr) const
{
    LineData snap;
    const std::uint32_t word0 = line_addr / wordBytes;
    for (unsigned w = 0; w < wordsPerLine; ++w)
        snap.w[w] = data[word0 + w];
    return snap;
}

// ---------------------------------------------------------------------
// Lazy writebacks
// ---------------------------------------------------------------------

void
Stash::writebackChunk(unsigned chunk)
{
    Chunk &ch = chunks[chunk];
    if (!ch.dirty && !ch.writeback)
        return;
    StashMapEntry &e = map.entry(ch.mapIdx);

    if (e.valid && e.tile.isCoherent) {
        // Write back the chunk's registered words, grouped per global
        // line; per-word coherence state identifies the dirty words
        // (Section 4.2).
        const std::uint32_t w_begin = chunk * wordsPerChunk();
        const std::uint32_t w_end = w_begin + wordsPerChunk();
        const std::uint32_t map_begin = e.stashBase / wordBytes;
        const std::uint32_t map_end =
            (e.stashBase + e.tile.mappedBytes()) / wordBytes;
        // Each record's payload is its word's data.
        GroupByKey<PhysAddr, std::uint32_t> wb_lines;
        const unsigned words = translateWords(
            vpMap, e, ch.mapIdx, std::max(w_begin, map_begin),
            std::min(w_end, map_end),
            [&](std::uint32_t w) {
                return state[w] == WordState::Registered;
            },
            [&](std::uint32_t w, PhysAddr pa) {
                wb_lines.add(lineBase(pa), wordBit(lineWord(pa)), data[w]);
                setState(w, WordState::Valid, "chunk-writeback");
            });
        _stats.vpMapAccesses += words;
        if (words) {
            ++_stats.lazyWritebackChunks;
            _stats.wordsWrittenBack += words;
            ++_stats.translations;
        }
        wb_lines.forEach([&](PhysAddr line_pa, WordMask m, auto recs) {
            if (tracePA(line_pa)) {
                inform("stash core ", owner, " WbReq pa=0x", std::hex,
                       line_pa, std::dec, " mask=0x", std::hex, m,
                       std::dec, " chunkIdx=", unsigned(ch.mapIdx));
            }
            Msg wb;
            wb.type = MsgType::WbReq;
            wb.requester = owner;
            wb.requesterUnit = Unit::Stash;
            wb.linePA = line_pa;
            wb.mask = m;
            for (const auto &r : recs)
                wb.data.w[std::countr_zero(r.bits)] = r.payload;
            fabric.send(node, fabric.nodeOfLlc(line_pa), Unit::Llc,
                        std::move(wb));
        });
    }

    ch.dirty = false;
    ch.writeback = false;
    if (e.dirtyData > 0) {
        --e.dirtyData;
    } else if (checker) {
        // The chunk was dirty/writeback (checked on entry), so the
        // entry must have been charged for it: a zero counter here is
        // a #DirtyData underflow.
        checker->onDirtyDataUnderflow(owner, ch.mapIdx);
    }
}

void
Stash::writebackMapEntry(MapIndex idx)
{
    for (unsigned c = 0; c < numChunks(); ++c) {
        if (chunks[c].mapIdx == idx &&
            (chunks[c].dirty || chunks[c].writeback)) {
            writebackChunk(c);
        }
    }
}

// ---------------------------------------------------------------------
// Kernel lifecycle
// ---------------------------------------------------------------------

void
Stash::endThreadBlock(LocalAddr base, std::uint32_t bytes)
{
    if (bytes == 0)
        return;
    const unsigned first = base / params.chunkBytes;
    const unsigned last = (base + bytes - 1) / params.chunkBytes;
    for (unsigned c = first; c <= last && c < numChunks(); ++c) {
        if (chunks[c].dirty) {
            chunks[c].dirty = false;
            chunks[c].writeback = true;
        }
    }
}

void
Stash::releaseMap(MapIndex idx)
{
    map.entry(idx).pinned = false;
}

void
Stash::endKernel()
{
    for (std::uint32_t w = 0; w < numWords(); ++w) {
        if (state[w] == WordState::Valid) {
            if (checker)
                checker->onSelfInvalidate("stash", owner, w, state[w]);
            setState(w, WordState::Invalid, "self-invalidate");
            ++_stats.selfInvalidations;
        }
    }
}

void
Stash::flushAll()
{
    for (unsigned c = 0; c < numChunks(); ++c)
        writebackChunk(c);
}

std::span<const std::uint32_t>
Stash::resolveVa(Addr va, MapIndex hint, bool all_aliases)
{
    std::vector<std::uint32_t> &words = aliases;
    words.clear();
    auto try_entry = [&](MapIndex i) {
        const StashMapEntry &e = map.entry(i);
        if (!e.valid)
            return;
        std::uint32_t off;
        if (!e.tile.reverse(va, &off))
            return;
        const std::uint32_t w = (e.stashBase + off) / wordBytes;
        // Only the region's latest allocator speaks for this word.
        if (chunks[chunkOf(w)].allocIdx != i)
            return;
        for (std::uint32_t seen : words) {
            if (seen == w)
                return;
        }
        words.push_back(w);
    };
    try_entry(hint);
    if (!all_aliases && !words.empty() &&
        state[words.front()] != WordState::Invalid)
        return words; // fast path: the directory's hint still holds
    for (unsigned i = 0; i < map.capacity(); ++i)
        try_entry(MapIndex(i));
    return words;
}

// ---------------------------------------------------------------------
// Remote requests
// ---------------------------------------------------------------------

void
Stash::receive(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::ReadResp: {
        auto it = pendingFills.find(msg.linePA);
        if (it == pendingFills.end())
            return;
        auto &vec = it->second;
        for (auto pw = vec.begin(); pw != vec.end();) {
            if (msg.mask & wordBit(pw->wordInLine)) {
                if (state[pw->stashWord] == WordState::Invalid) {
                    data[pw->stashWord] = msg.data.w[pw->wordInLine];
                    setState(pw->stashWord, WordState::Valid, "fill");
                    if (checker) {
                        checker->onFill(
                            "stash", owner,
                            msg.linePA +
                                PhysAddr(pw->wordInLine) * wordBytes,
                            msg.data.w[pw->wordInLine]);
                    }
                }
                Waiter &waiter = waiters[pw->waiter];
                if (--waiter.remaining == 0) {
                    complete(waiter.lineAddr, std::move(waiter.done));
                    waiters.release(pw->waiter);
                }
                pw = vec.erase(pw);
            } else {
                ++pw;
            }
        }
        if (vec.empty()) {
            spareFills.push_back(pendingFills.extract(it));
            if (!parked.empty())
                wake();
        }
        return;
      }
      case MsgType::RegAck:
      case MsgType::WbAck:
        return;
      case MsgType::InvReq: {
        if (tracePA(msg.linePA)) {
            inform("stash core ", owner, " InvReq pa=0x", std::hex,
                   msg.linePA, std::dec, " mask=0x", std::hex, msg.mask,
                   std::dec, " idx=", unsigned(msg.stashMapIdx));
        }
        // Locate the local copies through the RTLB plus the map
        // entries; registration has moved elsewhere, so every copy
        // of the datum is stale — including a replica source whose
        // words may still read Registered from the kernel that
        // populated it, so bypass the hint fast path and strip all
        // aliases.
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (!(msg.mask & wordBit(w)))
                continue;
            Addr va;
            ++_stats.vpMapAccesses;
            if (!vpMap.reverse(msg.linePA + w * wordBytes, &va))
                continue;
            for (std::uint32_t sw :
                 resolveVa(va, msg.stashMapIdx, true))
                setState(sw, WordState::Invalid, "invreq");
        }
        return;
      }
      case MsgType::FwdReadReq: {
        WordMask served = 0;
        LineData d;
        WordMask retry = 0;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (!(msg.mask & wordBit(w)))
                continue;
            Addr va;
            ++_stats.vpMapAccesses;
            bool found = false;
            if (vpMap.reverse(msg.linePA + w * wordBytes, &va)) {
                for (std::uint32_t sw :
                     resolveVa(va, msg.stashMapIdx)) {
                    if (state[sw] != WordState::Invalid) {
                        d.w[w] = data[sw];
                        served |= wordBit(w);
                        found = true;
                        break;
                    }
                }
            }
            if (!found)
                retry |= wordBit(w);
        }
        if (served) {
            ++_stats.remoteHits;
            Msg resp;
            resp.type = MsgType::ReadResp;
            resp.requester = msg.requester;
            resp.requesterUnit = msg.requesterUnit;
            resp.linePA = msg.linePA;
            resp.mask = served;
            resp.data = d;
            fabric.sendToRequester(node, resp);
        }
        if (retry) {
            if (msg.retries > 100) {
                Addr va = 0;
                const bool rtlb_ok = vpMap.reverse(msg.linePA, &va);
                panic("stash: unresolvable forwarded request "
                      "(stale registration at the directory?) core=",
                      owner, " mapIdx=", unsigned(msg.stashMapIdx),
                      " rtlbHit=", rtlb_ok, " candidates=",
                      rtlb_ok ? resolveVa(va, msg.stashMapIdx).size()
                              : 0,
                      " linePA=0x", std::hex, msg.linePA);
            }
            Msg r;
            r.type = MsgType::FwdRetry;
            r.requester = msg.requester;
            r.requesterUnit = msg.requesterUnit;
            r.linePA = msg.linePA;
            r.mask = retry;
            r.wordsOnly = true;
            r.retries = std::uint8_t(msg.retries + 1);
            fabric.send(node, fabric.nodeOfLlc(msg.linePA), Unit::Llc,
                        std::move(r));
        }
        return;
      }
      default:
        panic("stash received unexpected ", msgTypeName(msg.type));
    }
}

// ---------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------

WordState
Stash::probeWord(LocalAddr byte_addr) const
{
    return state.at(byte_addr / wordBytes);
}

std::uint32_t
Stash::peek(LocalAddr byte_addr) const
{
    return data.at(byte_addr / wordBytes);
}

bool
Stash::chunkWriteback(unsigned chunk) const
{
    return chunks.at(chunk).writeback;
}

bool
Stash::chunkDirty(unsigned chunk) const
{
    return chunks.at(chunk).dirty;
}

// ---------------------------------------------------------------------
// Verification hooks
// ---------------------------------------------------------------------

void
Stash::forEachMappedWord(
    const std::function<void(PhysAddr, WordState, std::uint32_t,
                             MapIndex)> &fn) const
{
    // A replica source and the newer same-tile mapping that copied
    // from it (reuseBit/reuseIdx) alias the same addresses; like
    // resolveVa, the audit treats the aliased words as ONE logical
    // copy per physical address: the strongest state anywhere (the
    // registration may live in the older words if the new mapping
    // only read), with the newest mapping's data (the words a fresh
    // store lands in).
    std::vector<bool> superseded(map.capacity(), false);
    for (unsigned i = 0; i < map.capacity(); ++i) {
        const StashMapEntry &e = map.entry(MapIndex(i));
        if (e.valid && e.reuseBit && e.reuseIdx != MapIndex(i) &&
            map.entry(e.reuseIdx).valid &&
            map.entry(e.reuseIdx).tile == e.tile) {
            superseded[e.reuseIdx] = true;
        }
    }
    struct Rec
    {
        WordState st;
        std::uint32_t data;
        MapIndex idx;
        bool latest;
    };
    std::unordered_map<PhysAddr, Rec> merged;
    for (unsigned i = 0; i < map.capacity(); ++i) {
        const MapIndex idx = MapIndex(i);
        const StashMapEntry &e = map.entry(idx);
        if (!e.valid || !e.tile.isCoherent)
            continue;
        const std::uint32_t w_begin = e.stashBase / wordBytes;
        const std::uint32_t w_end =
            (e.stashBase + e.tile.mappedBytes()) / wordBytes;
        for (std::uint32_t w = w_begin; w < w_end; ++w) {
            // Only the region's latest allocator speaks for the word;
            // older replaced mappings onto the same bytes are dead.
            if (chunks[chunkOf(w)].allocIdx != idx)
                continue;
            if (state[w] == WordState::Invalid)
                continue;
            const std::uint32_t off = w * wordBytes - e.stashBase;
            PhysAddr pa;
            if (!vpMap.probe(e.tile.globalAddrOf(off), &pa))
                continue;
            const Rec r{state[w], data[w], idx, !superseded[i]};
            auto [it, fresh] = merged.emplace(pa, r);
            if (!fresh) {
                if (r.latest && !it->second.latest) {
                    const WordState strongest =
                        std::max(it->second.st, r.st);
                    it->second = r;
                    it->second.st = strongest;
                } else {
                    it->second.st = std::max(it->second.st, r.st);
                }
            }
        }
    }
    for (const auto &[pa, r] : merged)
        fn(pa, r.st, r.data, r.idx);
}

void
Stash::auditAccounting(
    const std::function<void(const std::string &)> &report) const
{
    // #DirtyData must equal the number of dirty/writeback chunks
    // charged to each entry (invalid entries must have drained to 0).
    for (unsigned i = 0; i < map.capacity(); ++i) {
        const StashMapEntry &e = map.entry(MapIndex(i));
        std::uint32_t charged = 0;
        for (const Chunk &ch : chunks) {
            if ((ch.dirty || ch.writeback) && ch.mapIdx == MapIndex(i))
                ++charged;
        }
        if (charged != e.dirtyData) {
            std::ostringstream os;
            os << "stash core " << owner << " map entry " << i
               << (e.valid ? "" : " (invalid)") << " #DirtyData="
               << e.dirtyData << " but " << charged
               << " dirty/writeback chunk(s) charge it";
            report(os.str());
        }
    }
    // Every Registered word must be reachable through a live coherent
    // mapping; otherwise its directory registration can never be
    // recalled or written back.
    for (std::uint32_t w = 0; w < std::uint32_t(data.size()); ++w) {
        if (state[w] != WordState::Registered)
            continue;
        const MapIndex alloc = chunks[chunkOf(w)].allocIdx;
        bool ok = false;
        if (alloc != unmappedIndex) {
            const StashMapEntry &e = map.entry(alloc);
            const std::uint32_t base = e.stashBase / wordBytes;
            const std::uint32_t end =
                (e.stashBase + e.tile.mappedBytes()) / wordBytes;
            ok = e.valid && e.tile.isCoherent && w >= base && w < end;
        }
        if (!ok) {
            std::ostringstream os;
            os << "stash core " << owner << " word " << w
               << " is Registered but unreachable (alloc entry "
               << unsigned(alloc) << ")";
            report(os.str());
        }
    }
}

void
Stash::dumpState(std::ostream &os) const
{
    os << "  stash core " << owner << ": vp-map " << vpMap.size() << "/"
       << vpMap.capacity() << " pages, " << pendingFills.size()
       << " pending fill line(s), " << parked.size()
       << " parked load(s)\n";
    // The oldest parked loads: a load that never proceeds is usually
    // among them.
    constexpr std::size_t shown = 4;
    for (std::size_t i = 0; i < std::min(shown, parked.size()); ++i) {
        const Parked &p = parked[i];
        os << "    parked #" << p.arrival << " stash line "
           << p.lineAddr / lineBytes << " map[" << unsigned(p.mapIdx)
           << "] need=" << p.lacked.need << " of "
           << p.lacked.numMissLines << " miss line(s), "
           << (wakeDue(p) ? "wake pending" : "no wake pending") << "\n";
    }
    for (unsigned i = 0; i < map.capacity(); ++i) {
        const StashMapEntry &e = map.entry(MapIndex(i));
        if (!e.valid)
            continue;
        os << "    map[" << i << "] base=0x" << std::hex << e.stashBase
           << std::dec << " bytes=" << e.tile.mappedBytes()
           << (e.tile.isCoherent ? " coherent" : " non-coherent")
           << (e.pinned ? " pinned" : "") << " #DirtyData="
           << e.dirtyData;
        if (e.reuseBit)
            os << " reuse->" << unsigned(e.reuseIdx);
        os << "\n";
    }
}

void
Stash::assertDrained() const
{
    sim_assert(pendingFills.empty());
    sim_assert(parked.empty());
    sim_assert(waiters.live() == 0);
    sim_assert(toRequestHead == toRequest.size());
}

} // namespace stashsim
