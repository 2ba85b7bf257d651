#include "mem/page_table.hh"

#include <ios>

#include "sim/log.hh"

namespace stashsim
{

namespace
{

/**
 * Physical pages live in a sparse 48-bit slot space above 4 GB, so
 * accidentally treating a virtual address as physical (or vice versa)
 * trips assertions instead of silently working, and so the birthday
 * bound on slot collisions is negligible for any realistic run
 * (~1e5 pages over 2^48 slots).  A collision is still checked and is
 * fatal: resolving one (e.g. by probing) would reintroduce
 * first-touch-order dependence.
 */
constexpr PhysAddr physBase = PhysAddr{4} << 30;
constexpr PhysAddr slotMask = (PhysAddr{1} << 48) - 1;

/** splitmix64 finalizer: a cheap, well-mixed 64-bit permutation. */
PhysAddr
mixVpage(Addr vpage)
{
    std::uint64_t z = vpage + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

PhysAddr
PageTable::physPageOf(Addr vpage)
{
    return physBase + (mixVpage(vpage) & slotMask) * pageBytes;
}

PhysAddr
PageTable::translate(Addr va)
{
    const Addr vpage = pageBase(va);
    auto it = vToP.find(vpage);
    if (it == vToP.end()) {
        const PhysAddr ppage = physPageOf(vpage);
        auto [pit, fresh] = pToV.emplace(ppage, vpage);
        if (!fresh && pit->second != vpage) {
            fatal("page table: physical slot collision (vpage 0x",
                  std::hex, vpage, " vs 0x", pit->second,
                  " at ppage 0x", ppage, ")");
        }
        it = vToP.emplace(vpage, ppage).first;
    }
    return it->second + (va - vpage);
}

bool
PageTable::lookup(Addr va, PhysAddr *pa) const
{
    const Addr vpage = pageBase(va);
    auto it = vToP.find(vpage);
    if (it == vToP.end())
        return false;
    *pa = it->second + (va - vpage);
    return true;
}

bool
PageTable::reverse(PhysAddr pa, Addr *va) const
{
    const PhysAddr ppage = pa & ~PhysAddr{pageBytes - 1};
    auto it = pToV.find(ppage);
    if (it == pToV.end())
        return false;
    *va = it->second + (pa - ppage);
    return true;
}

} // namespace stashsim
