/**
 * @file
 * The VP-map: per-stash virtual/physical page translations.
 *
 * Paper Section 4.1.4.  Two structures: a TLB (virtual -> physical,
 * used on stash misses and writebacks) and an RTLB (a CAM over
 * physical pages giving physical -> virtual, used for remote requests
 * that arrive with a physical address).  Every entry carries a back
 * pointer naming the *latest* stash-map entry that needs it; entries
 * are reclaimed when that map entry is replaced, which guarantees the
 * RTLB never misses for a live mapping.
 */

#ifndef STASHSIM_CORE_VP_MAP_HH
#define STASHSIM_CORE_VP_MAP_HH

#include <cstdint>
#include <unordered_map>

#include "core/stash_map.hh"
#include "mem/page_table.hh"
#include "sim/types.hh"

namespace stashsim
{

class SnapshotWriter;
class SnapshotReader;

/**
 * TLB + RTLB pair backing one stash.
 */
class VpMap
{
  public:
    VpMap(PageTable &pt, unsigned capacity)
        : pageTable(pt), _capacity(capacity)
    {
    }

    /**
     * Installs (or refreshes) the translation for the page of
     * @p vpage, stamping it with @p map_idx as the latest user.
     * Called by AddMap for every page its tile touches.
     */
    void install(Addr vpage, MapIndex map_idx);

    /**
     * TLB lookup for a stash miss or writeback.  Never fails for
     * addresses covered by an installed mapping; falls back to the
     * page table (and installs) otherwise.
     */
    PhysAddr translate(Addr va, MapIndex map_idx);

    /** Counts a word the caller translated from the same page's
     *  translate() just before: one lookup per page run, but the
     *  model counts every word. */
    void countRunWord() { ++_accesses; }

    /**
     * RTLB lookup for a remote request.  Guaranteed to hit for any
     * page of a live mapping (see file comment).
     *
     * @return true and sets @p va on a hit.
     */
    bool reverse(PhysAddr pa, Addr *va);

    /**
     * Drops every entry whose back pointer names @p map_idx (called
     * when that stash-map entry is replaced).
     */
    void release(MapIndex map_idx);

    /**
     * Side-effect-free lookup for verification code: no access
     * counting, no install.  Falls back to the shared page table for
     * pages already dropped by release() but still mapped globally.
     *
     * @return true and sets @p pa when the page is mapped.
     */
    bool probe(Addr va, PhysAddr *pa) const;

    /** True when installing one more page would exceed capacity. */
    bool full() const { return tlb.size() >= _capacity; }

    /** True when the page of @p vpage already has an entry. */
    bool
    contains(Addr vpage) const
    {
        return tlb.find(vpage) != tlb.end();
    }

    std::size_t size() const { return tlb.size(); }
    std::uint64_t accesses() const { return _accesses; }
    unsigned capacity() const { return _capacity; }

    /** Serializes the TLB entries (sorted) + access counter. */
    void snapshot(SnapshotWriter &w) const;

    /**
     * Restores the TLB and rebuilds the RTLB as its exact inverse
     * (install/release maintain the two in lock-step, so the inverse
     * is the complete RTLB state).  Each entry must be page-aligned,
     * name one of @p map_entries stash-map entries, hold a vpage and
     * a ppage no other entry holds, and agree with the (already
     * restored) page table.
     */
    void restore(SnapshotReader &r, unsigned map_entries);

  private:
    struct Entry
    {
        PhysAddr ppage;
        MapIndex lastMapIdx;
    };

    PageTable &pageTable;
    unsigned _capacity;
    std::unordered_map<Addr, Entry> tlb;       //!< vpage -> entry
    std::unordered_map<PhysAddr, Addr> rtlb;   //!< ppage -> vpage
    std::uint64_t _accesses = 0;
};

} // namespace stashsim

#endif // STASHSIM_CORE_VP_MAP_HH
