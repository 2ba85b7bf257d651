/**
 * @file
 * Per-core TLB.
 *
 * A 64-entry LRU TLB (Table 2).  Physically-tagged L1 caches consult
 * the TLB on every access, which is exactly the energy the stash
 * avoids on hits (Table 3 charges 14.1 pJ per TLB access).  Following
 * the paper (footnote 8), TLB misses are not charged a timing
 * penalty: every access is charged as a hit; misses still refill from
 * the page table so the entry bookkeeping is real.
 *
 * The counters count lookups: one per L1 access, since an access that
 * waits in the L1 keeps its translation (the L1 wait list), and one
 * per probe.  They feed no artifact.
 */

#ifndef STASHSIM_MEM_TLB_HH
#define STASHSIM_MEM_TLB_HH

#include <cstdint>
#include <list>
#include <unordered_map>

#include "mem/page_table.hh"
#include "sim/types.hh"

namespace stashsim
{

/**
 * An LRU TLB backed by the shared page table.
 */
class Tlb
{
  public:
    Tlb(PageTable &pt, unsigned entries) : pageTable(pt), capacity(entries)
    {}

    /** Translates @p va, counting one TLB access. */
    PhysAddr translate(Addr va);

    std::uint64_t accesses() const { return _accesses; }
    std::uint64_t misses() const { return _misses; }
    std::size_t size() const { return lru.size(); }

  private:
    void touch(Addr vpage, PhysAddr ppage);

    PageTable &pageTable;
    unsigned capacity;
    /**
     * One-entry MRU fast path: the page of the immediately preceding
     * translate().  Its LRU node is by construction at the front of
     * the list, so answering from this pair leaves the replacement
     * state bit-identical while skipping the map find and the splice.
     * (~Addr{0} is not page-aligned, so it never matches.)
     */
    Addr lastVpage = ~Addr{0};
    PhysAddr lastPpage = 0;
    /** MRU-first list of (vpage, ppage). */
    std::list<std::pair<Addr, PhysAddr>> lru;
    std::unordered_map<Addr, std::list<std::pair<Addr, PhysAddr>>::iterator>
        index;
    std::uint64_t _accesses = 0;
    std::uint64_t _misses = 0;
};

} // namespace stashsim

#endif // STASHSIM_MEM_TLB_HH
