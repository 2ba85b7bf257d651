/**
 * @file
 * The kernel/warp-operation model the GPU CU executes.
 *
 * Workloads (src/workloads) compile each benchmark into streams of
 * warp operations — the same abstraction level GPGPU-Sim's timing
 * model consumes after functional execution.  A warp op is one
 * dynamic warp instruction: a block of compute cycles, a coalesced
 * memory access with up to 32 per-lane addresses, or a barrier.
 *
 * A WarpOp is a 24-byte trivially copyable record; what varies in
 * size lives in its ThreadBlock.  A memory op names its lanes in the
 * block's lane-address pool (`addrs`): lanes one constant step apart
 * as their first address plus the step, any others as a run of the
 * pool, read back through LaneAddrs.  A Remap or DmaXfer op names its
 * target tile in the block's `retargets` table, so a stream of ops
 * copies as plain bytes and a block's addresses are one exactly sized
 * allocation (DESIGN.md §9.7).
 *
 * Functional dataflow is carried by one accumulator register per
 * lane: loads set it, Compute ops transform it (acc += accDelta),
 * stores can write it back.  That is enough to verify real end-to-end
 * data movement (e.g., the CPU observing `f(x)` for every element the
 * GPU updated through the stash) without a full ISA interpreter,
 * while instruction counts, addresses, and access types — the things
 * the paper's results are made of — are exact.
 */

#ifndef STASHSIM_GPU_KERNEL_HH
#define STASHSIM_GPU_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/stash_map.hh"
#include "mem/tile.hh"
#include "sim/types.hh"

namespace stashsim
{

/** Lanes per warp: the most lanes one memory op names. */
constexpr unsigned warpLanes = 32;

/** Stash maps per thread block (Table 2): a block's map slots. */
constexpr unsigned blockMapSlots = 4;

/** Kinds of warp instructions. */
enum class OpKind : std::uint8_t
{
    Compute,  //!< ALU work: occupies the warp for `cycles`
    GlobalLd, //!< coalesced load from the global AS (via L1)
    GlobalSt, //!< coalesced store to the global AS (via L1)
    LocalLd,  //!< scratchpad load (direct, 1 cycle)
    LocalSt,  //!< scratchpad store
    StashLd,  //!< stash load (direct; may miss and fetch implicitly)
    StashSt,  //!< stash store (registers words lazily)
    Barrier,  //!< thread-block barrier
    Remap,    //!< ChgMap: point a map slot at a new tile (stash)
    DmaXfer,  //!< mid-kernel DMA gather (ScratchGD re-staging)
};

/** Printable op-kind name. */
const char *opKindName(OpKind k);

/**
 * One dynamic warp instruction.
 */
struct WarpOp
{
    OpKind kind = OpKind::Compute;
    /** Stash ops: map-index-table slot (below blockMapSlots) of the
     *  thread block; 0xff for unmapped (temporary) accesses.  Remap:
     *  the slot to retarget. */
    std::uint8_t mapSlot = 0;
    /** Stores: write the lane accumulator instead of `value`. */
    bool storeAcc = false;
    /** Memory ops: number of lanes (<= warpLanes). */
    std::uint8_t lanes = 0;
    /** Compute: busy cycles. */
    std::uint16_t cycles = 1;
    /** Memory ops: the pool holds only lane 0; lane i adds i * step. */
    bool strided = false;
    /** Compute: per-lane accumulator delta (models compute(x)). */
    std::int32_t accDelta = 0;
    /** Stores: immediate value when !storeAcc. */
    std::uint32_t value = 0;
    /**
     * Memory ops: the op's first entry in the block's `addrs` pool.
     * Remap/DmaXfer: the op's entry in the block's `retargets`.
     */
    std::uint32_t index = 0;
    /** Strided memory ops: the signed distance between lanes. */
    std::int32_t step = 0;
};

static_assert(sizeof(WarpOp) <= 24 && std::is_trivially_copyable_v<WarpOp>,
              "a warp op stream must copy as plain bytes");

/**
 * The lane addresses of one memory op, read from its block's lane
 * pool: the only reader of how the pool encodes them.  A strided op's
 * pool entry is lane 0 and lane i adds i * step (modulo 2^64); any
 * other op's lanes are `lanes` consecutive pool entries.
 */
class LaneAddrs
{
  public:
    LaneAddrs(const Addr *pool, const WarpOp &op)
        : first(pool + op.index), count(op.lanes),
          entryStride(op.strided ? 0 : 1),
          step(op.strided ? Addr(std::int64_t(op.step)) : 0)
    {
    }

    unsigned size() const { return count; }

    Addr
    operator[](unsigned lane) const
    {
        return first[lane * entryStride] + step * lane;
    }

    /** Iterates the addresses by value, lane 0 first. */
    class iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = Addr;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = Addr;

        iterator(const LaneAddrs *lanes, unsigned lane)
            : lanes(lanes), lane(lane)
        {
        }
        Addr operator*() const { return (*lanes)[lane]; }
        iterator &
        operator++()
        {
            ++lane;
            return *this;
        }
        iterator
        operator++(int)
        {
            iterator was = *this;
            ++lane;
            return was;
        }
        bool operator==(const iterator &o) const { return lane == o.lane; }

      private:
        const LaneAddrs *lanes;
        unsigned lane;
    };

    iterator begin() const { return {this, 0}; }
    iterator end() const { return {this, count}; }

  private:
    const Addr *first;
    unsigned count;
    /** 1 for a run of pool entries, 0 for a strided op's one. */
    unsigned entryStride;
    Addr step;
};

/** Factory helpers for ops without lanes. @{ */
WarpOp computeOp(std::uint16_t cycles, std::int32_t acc_delta = 0);
WarpOp barrierOp();
/** @} */

/**
 * An AddMap executed at thread-block start (stash configurations).
 * `stashOffset` is relative to the block's local allocation.
 */
struct AddMapOp
{
    LocalAddr stashOffset = 0;
    TileSpec tile;
};

/**
 * A DMA transfer descriptor (ScratchGD configuration), and the target
 * of a Remap (ChgMap) or DmaXfer op.
 */
struct DmaOp
{
    LocalAddr localOffset = 0;
    TileSpec tile;
};

/**
 * One thread block: its local-memory footprint, its mappings/DMA
 * descriptors, one op stream per warp, and the lane addresses and
 * retarget tiles its ops name by index.
 */
struct ThreadBlock
{
    std::uint32_t localBytes = 0;
    std::vector<AddMapOp> addMaps;
    std::vector<DmaOp> dmaLoads;
    std::vector<DmaOp> dmaStores;
    std::vector<std::vector<WarpOp>> warps;
    /**
     * Every memory op's lane addresses: a strided op's first lane,
     * any other op's lanes as a consecutive run.  Global ops use
     * virtual addresses; Local/Stash ops use byte offsets within the
     * block's local allocation.  Read them through LaneAddrs.
     */
    std::vector<Addr> addrs;
    /** Remap/DmaXfer targets: the new tile and its local offset. */
    std::vector<DmaOp> retargets;

    /** The lane addresses of memory op @p op. */
    LaneAddrs lanes(const WarpOp &op) const { return {addrs.data(), op}; }

    /**
     * Memory-op factories: append @p lane_addrs (at most warpLanes)
     * to the pool, as the first address alone when they step by one
     * constant signed 32-bit amount, and return an op naming them.
     * @{
     */
    WarpOp memOp(OpKind kind, std::span<const Addr> lane_addrs,
                 std::uint8_t map_slot = 0);
    WarpOp storeValueOp(OpKind kind, std::span<const Addr> lane_addrs,
                        std::uint32_t value, std::uint8_t map_slot = 0);
    WarpOp storeAccOp(OpKind kind, std::span<const Addr> lane_addrs,
                      std::uint8_t map_slot = 0);
    /** @} */

    /** Total dynamic warp instructions in this block (for tests). */
    std::uint64_t dynamicInstructions() const;
};

/**
 * One kernel launch: a grid of thread blocks.
 */
struct Kernel
{
    std::string name;
    std::vector<ThreadBlock> blocks;

    std::uint64_t dynamicInstructions() const;
};

} // namespace stashsim

#endif // STASHSIM_GPU_KERNEL_HH
