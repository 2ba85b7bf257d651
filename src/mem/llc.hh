/**
 * @file
 * One bank of the shared L2 (LLC) plus the DeNovo registry.
 *
 * The LLC is the ordering point of the protocol.  Per word it holds
 * either the up-to-date data or a *registration*: the core that owns
 * the word, whether the owning unit is an L1 or a stash, and — the
 * paper's key directory extension (Section 4.3, feature 3) — the
 * owner's stash-map index, stored in the word's data field so the
 * directory adds no storage.  Demanded words registered elsewhere are
 * forwarded to their owner, which replies to the requester directly
 * (remote L1/stash hits, Table 2's 35-83 cycle path).
 *
 * Banks are interleaved at line granularity across all 16 mesh nodes
 * (NUCA); a bank access costs `accessCycles`, a miss adds whatever
 * the bank's memory backend charges (src/mem/backend — flat DRAM by
 * default, STT-MRAM or an SCM DRAM-cache by configuration).  Victims
 * with live registrations are never selected (the directory state is
 * the only pointer to the owner's data); with the paper's 4 MB LLC
 * and the evaluated working sets this never constrains the
 * replacement policy in practice, and we panic loudly if a set ever
 * fills with registered lines.
 *
 * The bank is sparse: a flat tag array and a per-set count of
 * allocated ways, with each line's body created on the line's first
 * fill.  A run touches a small fraction of the 4 MB, so construction,
 * flushes, drain checks and teardown visit only the lines it filled.
 * Capacity and replacement are those of the full array: a way, once
 * allocated, stays allocated, so a set's allocated ways are always
 * ways [0, used) and a miss takes the next one until the set is full
 * (DESIGN.md §9.4).  Bodies are created in fixed-size chunks that
 * never move, so a message finds its line once and carries the way
 * forward to its bank access (DESIGN.md §9.6).
 */

#ifndef STASHSIM_MEM_LLC_HH
#define STASHSIM_MEM_LLC_HH

#include <cstddef>
#include <vector>

#include "mem/backend/mem_backend.hh"
#include "mem/coherence/denovo.hh"
#include "mem/fabric.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace stashsim
{

/**
 * A single LLC bank with DeNovo registry semantics.
 */
class LlcBank : public MemObject
{
  public:
    struct Params
    {
        unsigned bankBytes = 256 * 1024;
        unsigned assoc = 16;
        Cycles accessCycles = 23;
        Tick clockPeriod = gpuClockPeriod;
    };

    /**
     * @p backend is this bank's backing store: fills and dirty
     * evictions go through it (it schedules on this bank's queue).
     * The miss latency lives in the backend's own config — not here.
     */
    LlcBank(EventQueue &eq, Fabric &fabric, MemBackend &backend,
            NodeId node, const Params &p);

    void receive(const Msg &msg) override;

    /**
     * Writes every dirty line to main memory (outside measured
     * execution; used before functional validation).  Lines with
     * registered words must have been recalled first by flushing the
     * owners.
     */
    void flushDirtyToMemory();

    const LlcStats &stats() const { return _stats; }

    /** Registry probe for tests: owner of the word at @p pa. */
    CoreId ownerOf(PhysAddr pa);

    /**
     * Protocol-checker sweep: every word of every resident line
     * (skipping lines whose fill is still pending).
     * fn(pa, state, data, owner, ownerIsStash, mapIdx).
     */
    void forEachDirectoryWord(
        const std::function<void(PhysAddr, WordState, std::uint32_t,
                                 CoreId, bool, unsigned)> &fn) const;

    /** Lines whose DRAM fill has not resolved yet. */
    std::size_t pendingFillLines() const;

    /**
     * Panics unless the bank is at a drain point: no fill pending, no
     * parked request, no access between accept and serve.
     */
    void assertDrained() const;

  private:
    /** Per-word registry entry. */
    struct WordEntry
    {
        /** Valid: LLC data is current.  Registered: owner has it. */
        WordState state = WordState::Valid;
        std::uint32_t data = 0;
        CoreId owner = invalidCore;
        bool ownerIsStash = false;
        std::uint8_t mapIdx = 0;
    };

    /** An allocated line's body; its address lives in `tags`. */
    struct Line
    {
        std::array<WordEntry, wordsPerLine> words{};
        std::uint64_t lastUse = 0;
        /**
         * Requests accepted but not yet served (between the bank
         * access being scheduled and it firing).  Such lines are
         * never eviction victims — that is the invariant serve()
         * asserts.
         */
        unsigned inService = 0;
        bool dirty = false;
        /** Its fill is in flight; requests queue in `waiting`. */
        bool fillPending = false;
    };

    /** Index into `tags` that names no line. */
    static constexpr std::size_t noWay = ~std::size_t{0};
    /** Bodies per chunk of `store`. */
    static constexpr std::size_t chunkLines = 16;

    unsigned setIndex(PhysAddr pa) const;
    /** Index (set * assoc + way) of @p line_pa's line, or noWay. */
    std::size_t findWay(PhysAddr line_pa) const;
    /** Allocates a line for @p line_pa, evicting if the set is full. */
    std::size_t allocWay(PhysAddr line_pa);
    /** Takes way used[set] of @p set for @p line_pa, with a new body. */
    std::size_t addWay(unsigned set, PhysAddr line_pa);

    /** fn(pa, line) per allocated line, in (set, way) order. */
    template <class Fn>
    void
    forEachLine(Fn fn) const
    {
        for (unsigned s = 0; s < sets; ++s) {
            const std::size_t base = std::size_t(s) * params.assoc;
            for (std::size_t i = base; i < base + used[s]; ++i)
                fn(tags[i], *bodies[i]);
        }
    }

    /** The fill of the line at @p way landed with @p d. */
    void fillDone(std::size_t way, const LineData &d);
    /** Accepts @p msg for the line at @p way: its bank access. */
    void process(const Msg &msg, std::size_t way);
    /** The bank access of @p msg at @p way ends: serve it. */
    void serve(const Msg &msg, std::size_t way);
    void serveRead(const Msg &msg, Line &line);
    void serveReg(const Msg &msg, Line &line);
    void serveWb(const Msg &msg, Line &line);

    EventQueue &eq;
    Fabric &fabric;
    MemBackend &backend;
    NodeId node;
    Params params;
    unsigned sets;
    /** Line address of each (set, way), index set * assoc + way. */
    std::vector<PhysAddr> tags;
    /** Allocated ways per set: ways [0, used[set]) hold lines. */
    std::vector<unsigned> used;
    /** Body of each allocated (set, way), same index as `tags`. */
    std::vector<Line *> bodies;
    /**
     * Every body, in allocation order, in chunks of chunkLines.  A
     * chunk reserves its capacity up front, so it never moves a body.
     */
    std::vector<std::vector<Line>> store;
    /** Requests that found their line's fill pending, in arrival order. */
    std::vector<Msg> waiting;
    std::uint64_t useClock = 0;
    LlcStats _stats;
};

} // namespace stashsim

#endif // STASHSIM_MEM_LLC_HH
