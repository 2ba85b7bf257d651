#include "mem/tlb.hh"

#include "snapshot/snapshot.hh"

namespace stashsim
{

PhysAddr
Tlb::translate(Addr va)
{
    ++_accesses;
    const Addr vpage = pageBase(va);
    if (vpage == lastVpage)
        return lastPpage + (va - vpage);

    auto it = index.find(vpage);
    if (it != index.end()) {
        // Move to MRU position.
        lru.splice(lru.begin(), lru, it->second);
        lastVpage = vpage;
        lastPpage = it->second->second;
        return lastPpage + (va - vpage);
    }

    ++_misses;
    const PhysAddr pa = pageTable.translate(va);
    touch(vpage, pa - (va - vpage));
    lastVpage = vpage;
    lastPpage = pa - (va - vpage);
    return pa;
}

void
Tlb::touch(Addr vpage, PhysAddr ppage)
{
    lru.emplace_front(vpage, ppage);
    index[vpage] = lru.begin();
    if (lru.size() > capacity) {
        index.erase(lru.back().first);
        lru.pop_back();
    }
}

void
Tlb::snapshot(SnapshotWriter &w) const
{
    w.u64(_accesses);
    w.u64(_misses);
    w.u32(std::uint32_t(lru.size()));
    for (const auto &[vpage, ppage] : lru) { // MRU-first
        w.u64(vpage);
        w.u64(ppage);
    }
}

void
Tlb::restore(SnapshotReader &r)
{
    _accesses = r.u64();
    _misses = r.u64();
    r.require(_misses <= _accesses, "more TLB misses than accesses");
    const std::uint32_t n = r.u32();
    r.require(n <= capacity, "more TLB entries than capacity");
    lru.clear();
    index.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        const Addr vpage = r.u64();
        const PhysAddr ppage = r.u64();
        r.require(vpage % pageBytes == 0 && ppage % pageBytes == 0,
                  "TLB entry not page-aligned");
        r.require(!index.contains(vpage), "duplicate TLB vpage");
        // The page table is restored before the TLBs.
        PhysAddr mapped = 0;
        r.require(pageTable.lookup(vpage, &mapped) && mapped == ppage,
                  "TLB entry disagrees with the page table");
        lru.emplace_back(vpage, ppage);
        index[vpage] = std::prev(lru.end());
    }
    lastVpage = ~Addr{0};
    lastPpage = 0;
}

} // namespace stashsim
