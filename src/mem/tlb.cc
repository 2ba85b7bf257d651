#include "mem/tlb.hh"

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

} // namespace stashsim
