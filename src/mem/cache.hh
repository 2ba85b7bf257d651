/**
 * @file
 * L1 cache with word-granularity DeNovo coherence.
 *
 * 32 KB, 8-way, 64 B lines, writeback (Table 2).  Tags are at line
 * granularity; coherence state is per word (DeNovo).  The cache is
 * physically tagged, so every access consults the per-core TLB — the
 * energy overhead the stash avoids on hits.
 *
 * Protocol behaviour (paper Section 4.3):
 *  - Load miss: request the missing words from the LLC; the LLC
 *    responds with every word of the line it holds (line-granularity
 *    transfer) and forwards remotely-registered demanded words to
 *    their owners.
 *  - Store: writes complete locally; words not yet Registered move to
 *    Registered optimistically while a registration request is sent
 *    to the LLC directory (DeNovo has no transient states; under the
 *    data-race-free discipline the ack cannot be refused).
 *  - Self-invalidation at kernel/phase boundaries drops Valid words
 *    and keeps Registered words.
 *  - Evicting a line writes back only its Registered words.
 *  - The cache serves forwarded requests for words it has registered
 *    (remote L1 hits).
 *
 * An access that cannot proceed (a load miss while every MSHR is
 * busy, or any miss whose set has every way pinned by an MSHR) parks
 * on a wait list and is woken only by an MSHR release that can let it
 * proceed, in arrival order (DESIGN.md §9.4).
 */

#ifndef STASHSIM_MEM_CACHE_HH
#define STASHSIM_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/coherence/denovo.hh"
#include "mem/fabric.hh"
#include "mem/tlb.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"
#include "sim/stats.hh"

namespace stashsim
{

class ProtocolChecker;

/**
 * One private L1 cache.
 */
class L1Cache : public MemObject
{
  public:
    struct Params
    {
        unsigned bytes = 32 * 1024;
        unsigned assoc = 8;
        unsigned mshrs = 64;
        Cycles hitCycles = 1;
        Tick clockPeriod = gpuClockPeriod;
    };

    /** Completion callback: delivers the line image (loads read it). */
    using AccessDone = std::function<void(const LineData &)>;

    L1Cache(EventQueue &eq, Fabric &fabric, Tlb &tlb, CoreId owner,
            NodeId node, const Params &p);

    /**
     * Word-masked access to one line.
     *
     * @param line_va   virtual line base address
     * @param mask      words accessed
     * @param is_store  store vs load
     * @param store_data data for stores (words in @p mask); null for
     *                   loads
     * @param done      runs when the access completes
     */
    void access(Addr line_va, WordMask mask, bool is_store,
                const LineData *store_data, AccessDone done);

    /** Kernel/phase boundary: drop Valid words, keep Registered. */
    void selfInvalidate();

    /** Writes back all registered words (end of program). */
    void flushAll();

    void receive(const Msg &msg) override;

    const CacheStats &stats() const { return _stats; }

    /** Looks up the state of a word; Invalid if not present. */
    WordState probe(Addr va);

    /** Shadows stores/fills/self-invalidations against @p c. */
    void attachChecker(ProtocolChecker *c) { checker = c; }

    /**
     * Protocol-checker sweep: every readable word of every resident
     * line.  fn(pa, state, data).
     */
    void forEachWord(
        const std::function<void(PhysAddr, WordState, std::uint32_t)>
            &fn) const;

    /**
     * Panics unless the cache is at a drain point: no MSHRs, no
     * parked accesses, no pinned lines.
     */
    void assertDrained() const;

  private:
    struct Line
    {
        bool allocated = false;
        PhysAddr pa = 0; //!< line base physical address
        std::array<WordState, wordsPerLine> st{};
        LineData data;
        std::uint64_t lastUse = 0;
        bool pinned = false; //!< an MSHR targets this line
        std::uint32_t mshr = 0; //!< that MSHR's slot, while pinned
    };

    struct Waiter
    {
        WordMask mask;
        AccessDone done;
    };

    /**
     * A miss in flight: a slot of the MSHR pool, named by its pinned
     * line.  A released slot has no waiters and no requested words.
     */
    struct Mshr
    {
        std::vector<Waiter> waiters;
        WordMask requested = 0; //!< words asked of the LLC so far
    };

    /** Why an access cannot proceed yet. */
    enum class Wait : std::uint8_t
    {
        None, //!< it proceeded
        Mshr, //!< a load miss while every MSHR is busy
        Way,  //!< every way of the line's set is pinned by an MSHR
    };

    /**
     * A parked access.  It keeps the physical line address it was
     * translated to on arrival, as a hardware replay queue would, so
     * waking it costs no TLB lookup.
     */
    struct Parked
    {
        PhysAddr linePA;
        WordMask mask;
        bool isStore;
        Wait wait;            //!< None once it has proceeded
        bool watched = false; //!< listed in lineWaiters
        LineData storeData;
        AccessDone done;
    };

    unsigned setIndex(PhysAddr pa) const;
    Line *findLine(PhysAddr line_pa);
    /** Allocates a way for @p line_pa; null if all ways are pinned. */
    Line *allocLine(PhysAddr line_pa);
    void evict(Line &line);
    void writebackWords(Line &line, WordMask mask);
    WordMask readableMask(const Line &line) const;
    void completeWaiters(PhysAddr line_pa, Line &line);
    /**
     * Performs the access, consuming @p done, or returns why it must
     * wait and leaves @p done alone.
     */
    Wait attempt(PhysAddr line_pa, WordMask mask, bool is_store,
                 const LineData *store_data, AccessDone &done);
    /** @{ The wait list; waiters are named by arrival number. */
    Parked &waiter(std::uint64_t arrival);
    void file(std::uint64_t arrival, Wait wait);
    void lineAllocated(PhysAddr line_pa);
    std::uint64_t nextMshrWaiter();
    void wake(unsigned set);
    /** @} */

    EventQueue &eq;
    Fabric &fabric;
    Tlb &tlb;
    CoreId owner;
    NodeId node;
    Params params;
    unsigned sets;
    std::vector<Line> lines; //!< sets x assoc, row-major
    /**
     * The MSHRs in flight.  A load that misses words of a resident
     * line takes a slot even when `params.mshrs` are busy, so the pool
     * can outgrow the MSHR count.
     */
    SlotPool<Mshr> mshrs;

    /**
     * Parked accesses in arrival order: parked[i] is arrival
     * firstArrival + i.  Records that proceeded stay in place until
     * the prefix before the oldest waiter is dropped.
     */
    std::vector<Parked> parked;
    std::uint64_t firstArrival = 1;
    std::size_t liveFrom = 0; //!< parked[0, liveFrom) have all proceeded
    /** No Wait::Mshr waiter arrived before this. */
    std::uint64_t mshrScan = 1;
    /** Wait::Way waiters by set; emptied when an MSHR in it releases. */
    std::vector<std::vector<std::uint64_t>> wayWaiters;
    /**
     * Every waiter by its line's set, until some access allocates
     * that line.
     */
    std::vector<std::vector<std::uint64_t>> lineWaiters;
    /** Waiters whose line was allocated since they were last tried. */
    std::vector<std::uint64_t> lineResident;
    /** Min-heap of the arrivals the current wake visits. */
    std::vector<std::uint64_t> wakeHeap;
    /** Arrival number that names no waiter. */
    static constexpr std::uint64_t noWaiter = ~std::uint64_t{0};
    /**
     * The arrival the current wake visited last.  noWaiter outside a
     * wake, so a waiter whose line is allocated then is visited at the
     * next wake.
     */
    std::uint64_t lastVisited = noWaiter;

    std::uint64_t useClock = 0;
    CacheStats _stats;
    ProtocolChecker *checker = nullptr;
};

} // namespace stashsim

#endif // STASHSIM_MEM_CACHE_HH
