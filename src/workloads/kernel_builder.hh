/**
 * @file
 * TbBuilder: lowers portable benchmark descriptions to each of the
 * paper's six memory configurations (Section 5.3), one thread block
 * at a time.
 *
 * A workload describes each data structure it touches as a TileUse —
 * the AddMap-style tile plus how the kernel uses it — and emits its
 * compute/access body once.  The builder lowers that description per
 * configuration, mirroring exactly the code transformations the paper
 * applied to its benchmarks:
 *
 *  - Scratch / ScratchG:   staged tiles get explicit copy-in/copy-out
 *    loops (a global load + scratchpad store per 32 elements, plus
 *    the loop's index arithmetic) around a body that uses cheap local
 *    addressing.  ScratchG additionally stages originally-global
 *    tiles.
 *  - ScratchGD:            the copy loops become DMA descriptors.
 *  - Cache:                no staging; body accesses go to the global
 *    address space through the L1, each paying an index-computation
 *    instruction (the address arithmetic the core must do).
 *  - Stash / StashG:       staged tiles become AddMap calls; body
 *    accesses are direct stash addresses (no index computation — the
 *    stash-map does the translation in hardware on misses).  StashG
 *    additionally maps originally-global tiles.
 *
 * Dirty-data conservatism matches the paper: a scratchpad/DMA
 * configuration must copy in *every* element of a tile it may read
 * and write back *every* element it may have written, while stash and
 * cache move only what the body actually touches (the On-demand
 * benchmark's point).
 */

#ifndef STASHSIM_WORKLOADS_KERNEL_BUILDER_HH
#define STASHSIM_WORKLOADS_KERNEL_BUILDER_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "config/system_config.hh"
#include "gpu/kernel.hh"
#include "mem/tile.hh"
#include "sim/log.hh"

namespace stashsim
{

/**
 * How a kernel uses one tile of global data.
 */
struct TileUse
{
    TileSpec tile;
    /** Byte offset within the thread block's local allocation. */
    LocalAddr localOffset = 0;
    /** The kernel reads (some of) the tile. */
    bool readIn = true;
    /** The kernel writes (some of) the tile. */
    bool writeOut = true;
    /**
     * The original application accessed this data globally (not via
     * the scratchpad); ScratchG/StashG convert it, the base
     * configurations leave it global.
     */
    bool originallyGlobal = false;
    /**
     * Whether the "G" variants may stage this originally-global data
     * locally.  Data with no block-local reuse (e.g., Pollution's
     * shared cache-resident array) stays global everywhere.
     */
    bool convertible = true;
    /** Private temporary: never moved to/from the global space. */
    bool temporary = false;
};

/**
 * Builds one ThreadBlock for a given memory configuration.
 */
class TbBuilder
{
  public:
    TbBuilder(MemOrg org, unsigned num_warps);

    /** Declares a tile use; returns its handle. */
    unsigned addTile(const TileUse &use);

    /** Appends a compute instruction to warp @p warp's body. */
    void compute(unsigned warp, std::uint16_t cycles,
                 std::int32_t acc_delta = 0);

    /**
     * Appends a coalesced access to tile @p t: lane i touches element
     * `elems[i]` (word @p word of its field).  Lowered per the active
     * configuration (see file comment).
     */
    void accessTile(unsigned warp, unsigned t,
                    std::span<const std::uint32_t> elems, bool is_store,
                    bool store_acc = true, std::uint32_t value = 0,
                    unsigned word = 0);

    /** Appends a barrier to every warp. */
    void barrier();

    /**
     * Re-stages tile @p t onto a new global tile mid-kernel (the
     * Parboil-style __syncthreads staging loop).  Lowered per
     * configuration: a fresh copy-in loop (scratchpads), a DMA
     * transfer (ScratchGD), a ChgMap (stash), or just new addresses
     * (cache).  Only read-only tiles may be re-staged (dirty data
     * would need a copy-out first).
     */
    void restage(unsigned t, const TileSpec &new_tile);

    /**
     * Finalizes the block: wraps the body with the staging prologue
     * and epilogue the configuration requires, and sizes the block's
     * lane-address pool exactly.  Call once: the block is moved out.
     */
    ThreadBlock build();

    /** True when this configuration stages tile @p t locally. */
    bool staged(unsigned t) const;

    MemOrg memOrg() const { return org; }

  private:
    /**
     * Emits the explicit scratchpad copy-in/out loop for a tile into
     * @p streams, appending its lanes to the block's pool.
     */
    void emitCopyLoop(std::vector<std::vector<WarpOp>> &streams,
                      const TileUse &use, bool copy_in);

    OpKind localLoadKind() const;
    OpKind localStoreKind() const;

    MemOrg org;
    unsigned numWarps;
    std::vector<TileUse> tiles;
    /** Tile currently backing each handle (updated by restage). */
    std::vector<TileSpec> currentTile;
    /** Stash map slot per staged tile (stash configs). */
    std::vector<std::uint8_t> mapSlot;
    /**
     * The block under construction: its warp streams hold the body,
     * and its pool the lanes of every op emitted so far.
     */
    ThreadBlock blk;
    std::uint32_t localBytes = 0;
    std::uint8_t nextMapSlot = 0;
};

/** Up to warpLanes lane element indices, held inline (no heap). */
class LaneList
{
  public:
    void
    push_back(std::uint32_t e)
    {
        sim_assert(n < elems.size());
        elems[n++] = e;
    }

    const std::uint32_t *data() const { return elems.data(); }
    std::size_t size() const { return n; }
    const std::uint32_t *begin() const { return elems.data(); }
    const std::uint32_t *end() const { return elems.data() + n; }
    std::uint32_t operator[](std::size_t i) const { return elems[i]; }

  private:
    std::array<std::uint32_t, warpLanes> elems{};
    std::uint32_t n = 0;
};

/** The @p count (<= warpLanes) lane elements first, first + stride, .... */
LaneList laneElems(std::uint32_t first, std::uint32_t count,
                   std::uint32_t stride = 1);

} // namespace stashsim

#endif // STASHSIM_WORKLOADS_KERNEL_BUILDER_HH
