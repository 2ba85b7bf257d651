#include "core/vp_map.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/log.hh"
#include "snapshot/snapshot.hh"

namespace stashsim
{

void
VpMap::install(Addr vpage, MapIndex map_idx)
{
    sim_assert(vpage % pageBytes == 0);
    const PhysAddr pa = pageTable.translate(vpage);
    auto it = tlb.find(vpage);
    if (it != tlb.end()) {
        // Refresh the back pointer: this newer mapping now keeps the
        // translation alive.
        it->second.lastMapIdx = map_idx;
        return;
    }
    tlb.emplace(vpage, Entry{pa, map_idx});
    rtlb.emplace(pa, vpage);
}

PhysAddr
VpMap::translate(Addr va, MapIndex map_idx)
{
    ++_accesses;
    const Addr vpage = pageBase(va);
    auto it = tlb.find(vpage);
    if (it == tlb.end()) {
        // Not installed: acquire from the page table at the miss, as
        // Section 4.2 describes for translations absent at AddMap
        // time.
        install(vpage, map_idx);
        it = tlb.find(vpage);
    }
    return it->second.ppage + (va - vpage);
}

bool
VpMap::reverse(PhysAddr pa, Addr *va)
{
    ++_accesses;
    const PhysAddr ppage = pa & ~PhysAddr{pageBytes - 1};
    auto it = rtlb.find(ppage);
    if (it == rtlb.end())
        return false;
    *va = it->second + (pa - ppage);
    return true;
}

bool
VpMap::probe(Addr va, PhysAddr *pa) const
{
    const Addr vpage = pageBase(va);
    auto it = tlb.find(vpage);
    if (it != tlb.end()) {
        *pa = it->second.ppage + (va - vpage);
        return true;
    }
    return pageTable.lookup(va, pa);
}

void
VpMap::release(MapIndex map_idx)
{
    for (auto it = tlb.begin(); it != tlb.end();) {
        if (it->second.lastMapIdx == map_idx) {
            rtlb.erase(it->second.ppage);
            it = tlb.erase(it);
        } else {
            ++it;
        }
    }
}

void
VpMap::snapshot(SnapshotWriter &w) const
{
    w.u64(_accesses);
    std::vector<std::pair<Addr, Entry>> pairs(tlb.begin(), tlb.end());
    std::sort(pairs.begin(), pairs.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    w.u32(std::uint32_t(pairs.size()));
    for (const auto &[vpage, e] : pairs) {
        w.u64(vpage);
        w.u64(e.ppage);
        w.u8(e.lastMapIdx);
    }
}

void
VpMap::restore(SnapshotReader &r, unsigned map_entries)
{
    _accesses = r.u64();
    tlb.clear();
    rtlb.clear();
    const std::uint32_t n = r.u32();
    r.require(n <= _capacity, "more VP-map entries than capacity");
    for (std::uint32_t i = 0; i < n; ++i) {
        const Addr vpage = r.u64();
        const PhysAddr ppage = r.u64();
        const MapIndex idx = r.u8();
        r.require(vpage % pageBytes == 0 && ppage % pageBytes == 0,
                  "VP-map entry not page-aligned");
        r.require(idx < map_entries,
                  "VP-map entry names no stash-map entry");
        r.require(tlb.emplace(vpage, Entry{ppage, idx}).second,
                  "duplicate VP-map vpage");
        r.require(rtlb.emplace(ppage, vpage).second,
                  "duplicate VP-map ppage");
        // The page table is restored before the stashes.
        PhysAddr mapped = 0;
        r.require(pageTable.lookup(vpage, &mapped) && mapped == ppage,
                  "VP-map entry disagrees with the page table");
    }
}

} // namespace stashsim
