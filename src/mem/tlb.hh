/**
 * @file
 * Per-core TLB.
 *
 * Physically-tagged L1 caches consult the TLB on every access, which
 * is exactly the energy the stash avoids on hits (Table 3 charges
 * 14.1 pJ per TLB access).  Following the paper (footnote 8), a TLB
 * miss costs no time, so which pages the TLB holds reaches no cycle
 * count, energy figure or artifact, and its contents are not
 * modelled: every access is charged as a hit and translated by the
 * shared page table, whose physical pages do not depend on the order
 * of first touch.
 *
 * The access counter counts lookups: one per L1 access, since an
 * access that waits in the L1 keeps its translation (the L1 wait
 * list), and one per probe.  It feeds no artifact.
 */

#ifndef STASHSIM_MEM_TLB_HH
#define STASHSIM_MEM_TLB_HH

#include <cstdint>

#include "mem/page_table.hh"
#include "sim/types.hh"

namespace stashsim
{

/**
 * A TLB front for the shared page table; see file comment.
 */
class Tlb
{
  public:
    explicit Tlb(PageTable &pt) : pageTable(pt) {}

    /** Translates @p va, counting one TLB access. */
    PhysAddr
    translate(Addr va)
    {
        ++_accesses;
        const Addr vpage = pageBase(va);
        if (vpage != lastVpage) {
            lastVpage = vpage;
            lastPpage = pageTable.translate(vpage);
        }
        return lastPpage + (va - vpage);
    }

    std::uint64_t accesses() const { return _accesses; }

  private:
    PageTable &pageTable;
    /**
     * One-entry fast path: the page of the immediately preceding
     * translate(), answered without the page-table lookup.
     * (~Addr{0} is not page-aligned, so it never matches.)
     */
    Addr lastVpage = ~Addr{0};
    PhysAddr lastPpage = 0;
    std::uint64_t _accesses = 0;
};

} // namespace stashsim

#endif // STASHSIM_MEM_TLB_HH
