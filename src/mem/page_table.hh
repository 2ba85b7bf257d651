/**
 * @file
 * A single shared page table for the unified address space.
 *
 * The paper's system has one unified, coherent virtual address space
 * shared by CPUs and GPUs (Section 5.1), so one page table suffices.
 * Physical pages are assigned by a 64-bit mix of the virtual page
 * number into a huge sparse physical space, which decouples physical
 * from virtual layout — this keeps the VP-map's reverse
 * (physical-to-virtual) translation honest: it cannot be faked by
 * arithmetic on the physical address.  Unlike bump ("first-touch
 * order") allocation, the assignment depends only on the page itself,
 * so a page's physical address never depends on which component
 * touched it first (a workload's init, a CPU or a GPU access).
 */

#ifndef STASHSIM_MEM_PAGE_TABLE_HH
#define STASHSIM_MEM_PAGE_TABLE_HH

#include <unordered_map>

#include "sim/types.hh"

namespace stashsim
{

/**
 * Virtual-to-physical page mapping with order-independent,
 * hash-assigned physical pages.
 */
class PageTable
{
  public:
    /**
     * Translates a virtual address, assigning a physical page on
     * first touch.
     */
    PhysAddr translate(Addr va);

    /**
     * Side-effect-free translation: no first-touch assignment.
     * @return true and sets @p pa when the page is already mapped.
     */
    bool lookup(Addr va, PhysAddr *pa) const;

    /**
     * Reverse-translates a physical address.
     * @return true and sets @p va when the page is mapped.
     */
    bool reverse(PhysAddr pa, Addr *va) const;

    /** Number of mapped pages. */
    std::size_t numPages() const { return vToP.size(); }

    /** The physical page translate() assigns to page @p vpage. */
    static PhysAddr physPageOf(Addr vpage);

  private:
    std::unordered_map<Addr, PhysAddr> vToP; //!< page -> page base
    std::unordered_map<PhysAddr, Addr> pToV;
};

} // namespace stashsim

#endif // STASHSIM_MEM_PAGE_TABLE_HH
