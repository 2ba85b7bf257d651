/**
 * @file
 * D2MA-style DMA engine for scratchpads (the ScratchGD baseline).
 *
 * Follows the paper's Section 5.3 variant of D2MA (Jamshidi et al.,
 * PACT'14): strided gather/scatter transfers move data directly
 * between the global address space and the scratchpad, bypassing the
 * L1 (no pollution, no per-element load/store instructions), blocking
 * at *core* granularity (the thread block waits for the whole
 * transfer), and supporting stores as well as loads.  Like the paper,
 * we conservatively charge no energy for the engine itself — but the
 * scratchpad *is* charged for the DMA's fills and drains, which is
 * one of the stash's remaining advantages (the stash writes its
 * storage once, on the miss fill, not once per DMA plus once per
 * program access).
 *
 * What DMA cannot do (and the stash can): on-demand transfer of only
 * the accessed elements, lazy writebacks, and reuse across kernels —
 * every mapped word is moved, every kernel, in both directions when
 * written.
 */

#ifndef STASHSIM_MEM_DMA_ENGINE_HH
#define STASHSIM_MEM_DMA_ENGINE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mem/fabric.hh"
#include "mem/scratchpad.hh"
#include "mem/tile.hh"
#include "mem/tlb.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace stashsim
{

class ProtocolChecker;
class Watchdog;

/**
 * One per-CU DMA engine.
 */
class DmaEngine : public MemObject
{
  public:
    using DoneFn = std::function<void()>;

    DmaEngine(EventQueue &eq, Fabric &fabric, Tlb &tlb,
              Scratchpad &spad, CoreId owner, NodeId node,
              unsigned max_inflight_lines = 32);

    /**
     * Gathers the tile into the scratchpad at byte offset @p base.
     * @p done runs when every word has been written to the
     * scratchpad.
     */
    void load(const TileSpec &tile, LocalAddr base, DoneFn done);

    /**
     * Scatters scratchpad data at @p base back to the tile's global
     * addresses.  @p done runs when the LLC has acknowledged every
     * line.
     */
    void store(const TileSpec &tile, LocalAddr base, DoneFn done);

    void receive(const Msg &msg) override;

    const DmaStats &stats() const { return _stats; }

    /** Shadows DMA stores and fills against @p c. */
    void attachChecker(ProtocolChecker *c) { checker = c; }

    /** Reports per-line completions as forward progress to @p w. */
    void setWatchdog(Watchdog *w) { watchdog = w; }

    /** Panics unless every burst finished and none is queued. */
    void assertDrained() const;

  private:
    struct Transfer
    {
        unsigned pendingLines = 0;
        DoneFn done;
    };

    struct PendingLine
    {
        std::shared_ptr<Transfer> xfer;
        /** word-in-line -> scratchpad byte address (loads only). */
        std::vector<std::pair<unsigned, LocalAddr>> fills;
        WordMask mask = 0;
    };

    /** Builds the line->words plan for a tile at @p base. */
    std::map<PhysAddr, PendingLine> plan(const TileSpec &tile,
                                         LocalAddr base,
                                         std::shared_ptr<Transfer> x);

    /** Issues queued line requests while slots are free. */
    void pump();

    EventQueue &eq;
    Fabric &fabric;
    Tlb &tlb;
    Scratchpad &spad;
    CoreId owner;
    NodeId node;
    /** Outstanding-line window (the engine's MSHR equivalent). */
    unsigned maxInflight;
    /** In-flight line transfers, FIFO per line address. */
    std::multimap<PhysAddr, PendingLine> pending;
    /**
     * Line requests waiting for a free slot; FIFO starting at
     * queuedHead.  Consumed entries are skipped, not erased (a front
     * erase would shift the whole burst), and the storage is
     * reclaimed once the burst drains.
     */
    std::vector<std::pair<Msg, PendingLine>> queued;
    std::size_t queuedHead = 0;
    DmaStats _stats;
    ProtocolChecker *checker = nullptr;
    Watchdog *watchdog = nullptr;
};

} // namespace stashsim

#endif // STASHSIM_MEM_DMA_ENGINE_HH
