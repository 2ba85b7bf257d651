/**
 * @file
 * GPU compute unit (CU), analogous to an NVIDIA SM.
 *
 * In-order warp execution with round-robin scheduling and one issue
 * slot per 700 MHz cycle; memory latency is hidden by switching among
 * the resident warps (up to 8 thread blocks / 48 warps, Table 2).
 * The CU owns the access paths to its L1 cache (global ops), its
 * scratchpad or stash (local ops), and — in the ScratchGD
 * configuration — its DMA engine, and drives the kernel-boundary
 * coherence actions (stash/L1 self-invalidation).
 *
 * Thread-block residency is limited by the slot count, the warp
 * count, and the local-memory footprint: a kernel whose blocks claim
 * large scratchpad/stash allocations runs fewer blocks concurrently,
 * exactly the occupancy coupling real GPUs exhibit.  A retired
 * block's and its warps' contexts are kept for the next launch, so a
 * warm CU launches and retires blocks without allocating.
 */

#ifndef STASHSIM_GPU_COMPUTE_UNIT_HH
#define STASHSIM_GPU_COMPUTE_UNIT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "config/system_config.hh"
#include "core/stash.hh"
#include "gpu/kernel.hh"
#include "mem/cache.hh"
#include "mem/dma_engine.hh"
#include "mem/scratchpad.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"
#include "sim/stats.hh"

namespace stashsim
{

class Watchdog;

/**
 * One GPU compute unit.
 */
class ComputeUnit
{
  public:
    /**
     * @param l1    the CU's L1 cache (always present)
     * @param spad  scratchpad, or null in cache/stash configurations
     * @param stash stash, or null in scratchpad/cache configurations
     * @param dma   DMA engine, or null outside ScratchGD
     */
    ComputeUnit(EventQueue &eq, const SystemConfig &cfg, CoreId core,
                L1Cache *l1, Scratchpad *spad, Stash *stash,
                DmaEngine *dma);

    /**
     * Launches blocks @p first, first + @p stride, ... of @p kernel,
     * which must stay alive until @p done runs, when every one of
     * them has finished.
     */
    void runKernel(const Kernel &kernel, std::size_t first,
                   std::size_t stride, std::function<void()> done);

    const GpuStats &stats() const { return _stats; }
    CoreId coreId() const { return core; }

    /** Reports instruction issue as forward progress to @p w. */
    void setWatchdog(Watchdog *w) { watchdog = w; }

    /**
     * Panics unless the CU is between kernels: no resident blocks or
     * warps, no line access in flight.
     */
    void assertDrained() const;

  private:
    struct TbCtx;

    struct WarpCtx
    {
        TbCtx *tb = nullptr;
        const std::vector<WarpOp> *ops = nullptr;
        std::size_t pc = 0;
        std::array<std::uint32_t, 32> acc{};
        /** Issue sequence of the op that last wrote each lane's
         *  accumulator: responses of batched loads apply in issue
         *  order, not arrival order. */
        std::array<std::uint64_t, 32> accSeq{};
        std::uint64_t memSeq = 0;
        bool blocked = false;
        bool atBarrier = false;
        bool finished = false;
        unsigned pendingMem = 0;
    };

    struct TbCtx
    {
        const ThreadBlock *tb = nullptr;
        /** The block's lane-address pool, read on every access. */
        const Addr *lanes = nullptr;
        LocalAddr localBase = 0;
        std::array<MapIndex, 8> mapIdx{};
        unsigned liveWarps = 0;
        unsigned barrierCount = 0;
        /** DMA loads (at launch) or stores (at retire) in flight. */
        unsigned dmaPending = 0;
        bool running = false; //!< AddMaps done, DMA loads complete
        bool draining = false; //!< waiting on DMA stores
    };

    /**
     * One line access of a global or stash op, from issue to
     * completion, held in the CU's pool: the completion names it by
     * index.
     */
    struct LineReq
    {
        WarpCtx *warp = nullptr;
        std::uint64_t seq = 0; //!< the op's issue sequence in its warp
        std::uint32_t loadLanes = 0; //!< lanes that load a word of it
        std::array<std::uint8_t, 32> laneWord{}; //!< each such lane's word
    };

    bool warpReady(const WarpCtx &w) const;
    void scheduleTick();
    void tick();
    void execute(WarpCtx &warp);
    void executeMem(WarpCtx &warp, const WarpOp &op);
    /** Global and stash ops: one L1 or stash access per line. */
    void execMemLines(WarpCtx &warp, const WarpOp &op);
    void execMemLocal(WarpCtx &warp, const WarpOp &op);
    /** Completes line access @p req with the line image @p d. */
    void finishLine(std::uint32_t req, const LineData &d);
    void unblock(WarpCtx &warp);
    void onWarpFinished(WarpCtx &warp);
    void tryLaunchBlocks();
    void startBlock(TbCtx &tb);
    void finishBlock(TbCtx &tb);
    void retireBlock(TbCtx &tb);
    void checkKernelDone();
    bool allocLocal(std::uint32_t bytes, LocalAddr *base);
    void freeLocal(LocalAddr base, std::uint32_t bytes);

    EventQueue &eq;
    const SystemConfig &cfg;
    CoreId core;
    L1Cache *l1;
    Scratchpad *spad;
    Stash *stash;
    DmaEngine *dma;

    const Kernel *kernel = nullptr;
    std::function<void()> kernelDone;
    std::size_t nextBlock = 0;
    std::size_t blockStride = 1;
    /** Resident blocks and warps, in launch order. */
    std::vector<std::unique_ptr<TbCtx>> blocks;
    std::vector<std::unique_ptr<WarpCtx>> warps;
    /** Retired contexts, reused by the next launches. */
    std::vector<std::unique_ptr<TbCtx>> spareBlocks;
    std::vector<std::unique_ptr<WarpCtx>> spareWarps;
    std::size_t rrIndex = 0;
    bool tickScheduled = false;
    bool kernelActive = false;
    Tick kernelStart = 0;
    Counter instrAtKernelStart = 0;

    SlotPool<LineReq> lineReqs;

    /** Free intervals of the local (scratchpad/stash) space. */
    std::vector<std::pair<LocalAddr, std::uint32_t>> freeLocalSpace;
    /** Next-fit rotating allocation pointer. */
    LocalAddr allocPtr = 0;

    GpuStats _stats;
    Watchdog *watchdog = nullptr;
};

} // namespace stashsim

#endif // STASHSIM_GPU_COMPUTE_UNIT_HH
