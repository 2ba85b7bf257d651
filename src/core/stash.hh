/**
 * @file
 * The stash: a globally-visible, directly-addressed local memory.
 *
 * This is the paper's contribution (Sections 2-4).  The stash is
 * accessed like a scratchpad — by direct local address, no tag or TLB
 * lookup on hits — but each mapped region also carries a software-
 * declared stash-to-global translation (AddMap/ChgMap), letting the
 * hardware move data implicitly:
 *
 *  - the first load of a mapped word misses, translates (Table 2:
 *    10 cycles), and fetches exactly that word from the LLC
 *    (compact, on-demand transfer);
 *  - stores complete locally and register their words with the LLC
 *    directory, making the stash copy the globally-visible one;
 *  - dirty data is written back lazily, only when a later allocation
 *    actually needs the space (or the circular stash-map wraps);
 *  - remote requests are steered to the stash by the directory's
 *    (core, stash-map index) record and resolved through the VP-map
 *    RTLB plus the map entry's reverse translation;
 *  - at kernel boundaries the stash self-invalidates Valid words but
 *    keeps Registered ones, enabling cross-kernel reuse;
 *  - AddMap detects replicated mappings (Section 4.5) and serves
 *    their loads from the older copy instead of missing.
 *
 * Usage modes (Section 3.3) are all supported: Mapped Coherent,
 * Mapped Non-coherent (tile.isCoherent = false), and the scratchpad-
 * compatible Temporary/Global-unmapped modes (accesses carrying
 * `unmappedIndex`).
 */

#ifndef STASHSIM_CORE_STASH_HH
#define STASHSIM_CORE_STASH_HH

#include <array>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/stash_map.hh"
#include "core/vp_map.hh"
#include "mem/coherence/denovo.hh"
#include "mem/fabric.hh"
#include "mem/page_table.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"
#include "sim/stats.hh"

namespace stashsim
{

class ProtocolChecker;

/**
 * One per-CU stash.
 */
class Stash : public MemObject
{
  public:
    struct Params
    {
        unsigned bytes = 16 * 1024;
        unsigned chunkBytes = 64;
        unsigned mapEntries = 64;
        unsigned vpEntries = 64;
        Cycles translationCycles = 10;
        Cycles hitCycles = 1;
        Tick clockPeriod = gpuClockPeriod;
        bool replicationOpt = true;
        /** Outstanding miss lines (MSHR-equivalent), as for the L1. */
        unsigned mshrs = 64;
    };

    /** Completion callback; delivers the accessed stash line image. */
    using AccessDone = std::function<void(const LineData &)>;

    Stash(EventQueue &eq, Fabric &fabric, PageTable &pt, CoreId owner,
          NodeId node, const Params &p);

    /** Result of an AddMap: the map index plus any stall cycles. */
    struct AddMapResult
    {
        MapIndex idx;
        Cycles cost;
    };

    /**
     * The AddMap intrinsic (Section 3.1): maps stash bytes
     * [stash_base, stash_base + tile.mappedBytes()) onto @p tile.
     * @p stash_base must be chunk-aligned (the paper's alignment
     * requirement, footnote 4).
     */
    AddMapResult addMap(LocalAddr stash_base, const TileSpec &tile);

    /**
     * The ChgMap intrinsic: points entry @p idx at a new tile and/or
     * operation mode, performing the Section 4.2 writeback or
     * re-registration transitions.
     */
    Cycles chgMap(MapIndex idx, LocalAddr stash_base,
                  const TileSpec &tile);

    /**
     * Word-masked access to the stash line at byte address
     * @p line_addr (64 B aligned).  @p map_idx selects the stash-map
     * entry backing these words (from the instruction's map-index
     * field), or `unmappedIndex` for temporary/global-unmapped data.
     */
    void access(LocalAddr line_addr, WordMask mask, bool is_store,
                const LineData *store_data, MapIndex map_idx,
                AccessDone done);

    /**
     * Thread-block completion (Section 4.2): per-chunk dirty bits in
     * the block's allocation convert to writeback bits.
     */
    void endThreadBlock(LocalAddr base, std::uint32_t bytes);

    /**
     * Unpins map entry @p idx: its thread block has retired, so the
     * entry may be retired early if the VP-map needs the space.  The
     * mapping itself stays valid (lazy writebacks, reuse).
     */
    void releaseMap(MapIndex idx);

    /** Kernel boundary: self-invalidate Valid, keep Registered. */
    void endKernel();

    /** Forces every pending lazy writeback out (end of program). */
    void flushAll();

    void receive(const Msg &msg) override;

    const StashStats &stats() const { return _stats; }
    const StashMap &mapTable() const { return map; }
    const VpMap &vpMapTable() const { return vpMap; }

    /** @{ Test/telemetry probes. */
    WordState probeWord(LocalAddr byte_addr) const;
    std::uint32_t peek(LocalAddr byte_addr) const;
    bool chunkWriteback(unsigned chunk) const;
    bool chunkDirty(unsigned chunk) const;
    /** @} */

    /** Shadows stores/fills/transitions against @p c. */
    void attachChecker(ProtocolChecker *c) { checker = c; }

    /**
     * Protocol-checker sweep: every readable word reachable through a
     * valid *coherent* mapping that is the current occupant of its
     * stash region.  fn(pa, state, data, mapIdx).
     */
    void forEachMappedWord(
        const std::function<void(PhysAddr, WordState, std::uint32_t,
                                 MapIndex)> &fn) const;

    /**
     * Protocol-checker bookkeeping audit: per-entry #DirtyData versus
     * actual dirty/writeback chunk counts, and Registered words not
     * reachable through any live coherent mapping.  Findings are
     * reported through @p report.
     */
    void auditAccounting(
        const std::function<void(const std::string &)> &report) const;

    /**
     * Writes map-table and VP-map occupancy and the oldest parked
     * loads (watchdog dumps).
     */
    void dumpState(std::ostream &os) const;

    /**
     * Serializes data/state/chunks + map table + VP-map + stats.
     * Only valid at a drain point: no pending fills or parked loads.
     */
    void snapshot(SnapshotWriter &w) const;

    /** Restores a drain-point checkpoint into this (same-geometry) stash. */
    void restore(SnapshotReader &r);

  private:
    struct Chunk
    {
        bool dirty = false;
        bool writeback = false;
        /** Entry whose dirty data the chunk holds (for writeback). */
        MapIndex mapIdx = 0;
        /** Entry that most recently allocated this stash region. */
        MapIndex allocIdx = unmappedIndex;
    };

    /** A load that missed, until its last missing word fills. */
    struct Waiter
    {
        unsigned remaining = 0;
        LocalAddr lineAddr = 0;
        AccessDone done;
    };

    struct PendingWord
    {
        std::uint32_t stashWord;
        unsigned wordInLine;
        std::uint32_t waiter; //!< its load, in `waiters`
    };

    unsigned numWords() const { return unsigned(data.size()); }
    unsigned numChunks() const { return unsigned(chunks.size()); }
    unsigned wordsPerChunk() const
    {
        return params.chunkBytes / wordBytes;
    }
    unsigned chunkOf(std::uint32_t word) const
    {
        return word / wordsPerChunk();
    }

    /** Registers a dirty word's chunk bookkeeping. */
    void markDirty(std::uint32_t word, MapIndex map_idx);

    /** Single point for word-state transitions (traceable). */
    void setState(std::uint32_t w, WordState s, const char *why);

    /**
     * Finds every stash word currently mapping global virtual address
     * @p va: the directory's map-index @p hint is tried first (the
     * common, fast case); if the hinted entry no longer maps @p va
     * (it may have been recycled since the word was registered), all
     * valid entries are searched.  Replicated mappings can yield
     * several copies.
     */
    std::span<const std::uint32_t> resolveVa(Addr va, MapIndex hint,
                                             bool allAliases = false);

    /** Registers @p mask of line @p line_pa for map entry @p idx. */
    void sendRegReq(PhysAddr line_pa, WordMask mask, MapIndex idx);

    /** Writes back (or discards, if non-coherent) one chunk. */
    void writebackChunk(unsigned chunk);

    /** Writes back every dirty/writeback chunk of map entry @p idx. */
    void writebackMapEntry(MapIndex idx);

    /** Installs VP-map entries for every page @p tile touches. */
    void installVpEntries(const TileSpec &tile, MapIndex idx);

    /** Frees VP-map space by retiring oldest map entries. */
    void evictEntriesForVpSpace();

    /** Delivers the stash line's image to @p done after a hit. */
    void complete(LocalAddr line_addr, AccessDone done);

    LineData snapshotLine(LocalAddr line_addr) const;

    EventQueue &eq;
    Fabric &fabric;
    CoreId owner;
    NodeId node;
    Params params;

    std::vector<std::uint32_t> data;
    std::vector<WordState> state;
    std::vector<Chunk> chunks;

    StashMap map;
    VpMap vpMap;

    using PendingFills =
        std::unordered_map<PhysAddr, std::vector<PendingWord>>;
    /** The miss lines in flight, each with the words it will fill. */
    PendingFills pendingFills;
    /**
     * Nodes of released miss lines, kept with their vectors' capacity
     * for the next miss line.
     */
    std::vector<PendingFills::node_type> spareFills;
    /** Loads waiting for fills. */
    SlotPool<Waiter> waiters;
    /**
     * Miss lines to request, with their words, once their load's
     * translation completes, in the order the loads missed.  Every
     * translation takes the same delay at the same priority, so the
     * translation events fire in that order too, and each takes its
     * load's entries from the front.
     */
    std::vector<std::pair<PhysAddr, WordMask>> toRequest;
    std::size_t toRequestHead = 0;
    /** The stash words resolveVa() found last. */
    std::vector<std::uint32_t> aliases;

    /** Stash line number that names no line. */
    static constexpr std::uint32_t noLine = ~std::uint32_t{0};

    /** What a load that could not get its miss slots lacked. */
    struct Shortfall
    {
        /** Its miss lines that were not pending: slots it needs. */
        unsigned need = 0;
        unsigned numMissLines = 0;
        /** Physical lines of its missing words, ascending. */
        std::array<PhysAddr, wordsPerLine> missLines{};
        /**
         * First and last stash line holding a live same-tile replica
         * copy of a missing word that was not yet readable.
         */
        std::array<std::uint32_t, 2> replicaLines{noLine, noLine};
    };

    /** A load parked on the wait list (DESIGN.md §9.4). */
    struct Parked
    {
        std::uint64_t arrival;
        LocalAddr lineAddr;
        WordMask mask;
        MapIndex mapIdx;
        AccessDone done;
        Shortfall lacked{};
        /** touchClock right after its last try. */
        std::uint64_t triedAt = 0;
        /** One of its miss lines became pending since its last try. */
        bool linePending = false;
        bool waiting = true; //!< false once it proceeded
    };

    /**
     * Runs a mapped load, consuming @p done, or returns false, leaves
     * @p done alone and fills @p lacked (default-constructed by the
     * caller) when it cannot get its miss slots.  A new load and a
     * woken one run this same code.
     */
    bool tryLoad(LocalAddr line_addr, WordMask mask, MapIndex map_idx,
                 AccessDone &done, Shortfall &lacked);

    /** A new miss line's pendingFills entry, from a spare node if any. */
    PendingFills::iterator addPendingFill(PhysAddr line_pa);

    /** Sends the next @p n queued miss-line requests. */
    void sendReadReqs(std::size_t n);

    /** @{ The wait list. */
    void file(Parked &p, const Shortfall &lacked);
    /** Flags the parked loads that missed on @p line_pa. */
    void linePending(PhysAddr line_pa);
    bool wakeDue(const Parked &p) const;
    void wake();
    /** @} */

    /** Parked loads in arrival order. */
    std::vector<Parked> parked;
    std::uint64_t nextArrival = 0;
    /** Bumped by every stash-line touch and every AddMap/ChgMap. */
    std::uint64_t touchClock = 0;
    /** Per stash line: touchClock when a word of it last changed state. */
    std::vector<std::uint64_t> lineTouched;
    /** touchClock at the last AddMap or ChgMap. */
    std::uint64_t mapTouched = 0;

    StashStats _stats;
    ProtocolChecker *checker = nullptr;
};

} // namespace stashsim

#endif // STASHSIM_CORE_STASH_HH
