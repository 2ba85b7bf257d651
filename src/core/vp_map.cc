#include "core/vp_map.hh"

#include "sim/log.hh"

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

} // namespace stashsim
