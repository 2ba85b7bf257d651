/**
 * @file
 * Tests for the GPU compute unit, driven through a full System (the
 * CU needs the whole memory fabric behind it): warp execution,
 * coalescing, barriers, occupancy limits, instruction accounting,
 * and the kernel-boundary coherence actions.
 */

#include <gtest/gtest.h>

#include "driver/system.hh"

namespace stashsim
{
namespace
{

SystemConfig
tinyConfig(MemOrg org)
{
    SystemConfig cfg = SystemConfig::microbenchmarkDefault();
    cfg.memOrg = org;
    return cfg;
}

constexpr Addr gbase = 0x300000;

/** A kernel writing value 7 to n dense global words per block. */
Kernel
storeKernel(unsigned blocks, unsigned words_per_block)
{
    Kernel k;
    k.name = "store";
    for (unsigned b = 0; b < blocks; ++b) {
        ThreadBlock tb;
        tb.warps.resize(1);
        for (unsigned i = 0; i < words_per_block; i += 32) {
            std::vector<Addr> addrs;
            for (unsigned l = 0; l < 32 && i + l < words_per_block;
                 ++l) {
                addrs.push_back(gbase +
                                Addr(b) * words_per_block * 4 +
                                Addr(i + l) * 4);
            }
            tb.warps[0].push_back(
                tb.storeValueOp(OpKind::GlobalSt, addrs, 7));
        }
        k.blocks.push_back(std::move(tb));
    }
    return k;
}

RunResult
runKernelWorkload(System &sys, Kernel k)
{
    Workload wl;
    wl.name = "test";
    wl.phases.push_back(Phase::gpu(std::move(k)));
    return sys.run(std::move(wl));
}

TEST(ComputeUnitTest, ExecutesAndCountsInstructions)
{
    System sys(tinyConfig(MemOrg::Cache));
    Kernel k = storeKernel(2, 64);
    const auto expected = k.dynamicInstructions();
    RunResult r = runKernelWorkload(sys, std::move(k));
    EXPECT_EQ(r.stats.gpu.instructions, expected);
    EXPECT_EQ(r.stats.gpu.globalStores, 4u);
    EXPECT_EQ(r.stats.gpu.threadBlocks, 2u);
    EXPECT_EQ(r.stats.gpu.kernels, 1u);
}

TEST(ComputeUnitTest, StoresReachMemory)
{
    System sys(tinyConfig(MemOrg::Cache));
    RunResult r = runKernelWorkload(sys, storeKernel(1, 32));
    EXPECT_TRUE(r.validated);
    auto fm = sys.functionalMem();
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(fm.readWord(gbase + i * 4), 7u);
}

TEST(ComputeUnitTest, LoadComputeStorePipelineIsFunctional)
{
    SystemConfig cfg = tinyConfig(MemOrg::Cache);
    System sys(cfg);

    Kernel k;
    k.name = "incr";
    ThreadBlock tb;
    tb.warps.resize(1);
    std::vector<Addr> addrs;
    for (unsigned l = 0; l < 32; ++l)
        addrs.push_back(gbase + l * 4);
    tb.warps[0].push_back(tb.memOp(OpKind::GlobalLd, addrs));
    tb.warps[0].push_back(computeOp(1, 5)); // acc += 5
    tb.warps[0].push_back(tb.storeAccOp(OpKind::GlobalSt, addrs));
    k.blocks.push_back(std::move(tb));

    Workload wl;
    wl.name = "incr";
    wl.init = [](FunctionalMem &fm) {
        for (unsigned i = 0; i < 32; ++i)
            fm.writeWord(gbase + i * 4, i);
    };
    wl.phases.push_back(Phase::gpu(std::move(k)));
    sys.run(std::move(wl));

    auto fm = sys.functionalMem();
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(fm.readWord(gbase + i * 4), i + 5);
}

TEST(ComputeUnitTest, CoalescerGroupsLanesByLine)
{
    System sys(tinyConfig(MemOrg::Cache));
    // 32 lanes across exactly 2 lines -> 2 L1 accesses.
    Kernel k = storeKernel(1, 32);
    RunResult r = runKernelWorkload(sys, std::move(k));
    EXPECT_EQ(r.stats.gpuL1.accesses(), 2u);
}

TEST(ComputeUnitTest, BarrierSynchronizesWarps)
{
    System sys(tinyConfig(MemOrg::Cache));
    Kernel k;
    ThreadBlock tb;
    tb.warps.resize(4);
    for (auto &w : tb.warps) {
        w.push_back(computeOp(1));
        w.push_back(barrierOp());
        w.push_back(computeOp(1));
    }
    // Warp 0 is much slower before the barrier.
    tb.warps[0][0] = computeOp(500);
    k.blocks.push_back(std::move(tb));
    RunResult r = runKernelWorkload(sys, std::move(k));
    EXPECT_TRUE(r.validated);
    EXPECT_GE(r.gpuCycles, 500u); // everyone waited
    EXPECT_EQ(r.stats.gpu.barriers, 4u);
}

TEST(ComputeUnitTest, OccupancyLimitedByLocalMemory)
{
    // Two kernels with different per-block footprints: the one whose
    // blocks claim the whole scratchpad serializes and takes longer.
    auto make = [](unsigned local_bytes) {
        Kernel k;
        for (unsigned b = 0; b < 8; ++b) {
            ThreadBlock tb;
            tb.localBytes = local_bytes;
            tb.warps.resize(1);
            tb.warps[0].push_back(computeOp(200));
            k.blocks.push_back(std::move(tb));
        }
        return k;
    };
    System small(tinyConfig(MemOrg::Scratch));
    System big(tinyConfig(MemOrg::Scratch));
    RunResult r_small =
        runKernelWorkload(small, make(2 * 1024)); // 8 resident
    RunResult r_big =
        runKernelWorkload(big, make(16 * 1024)); // 1 resident
    EXPECT_GT(r_big.gpuCycles, 4 * r_small.gpuCycles);
}

TEST(ComputeUnitTest, TooLargeBlockIsFatal)
{
    System sys(tinyConfig(MemOrg::Scratch));
    Kernel k;
    ThreadBlock tb;
    tb.localBytes = 32 * 1024; // > 16 KB scratchpad
    tb.warps.resize(1);
    tb.warps[0].push_back(computeOp(1));
    k.blocks.push_back(std::move(tb));
    EXPECT_THROW(runKernelWorkload(sys, std::move(k)),
                 std::runtime_error);
}

TEST(ComputeUnitTest, ScratchpadOpsStayLocal)
{
    System sys(tinyConfig(MemOrg::Scratch));
    Kernel k;
    ThreadBlock tb;
    tb.localBytes = 1024;
    tb.warps.resize(1);
    std::vector<Addr> offs;
    for (unsigned l = 0; l < 32; ++l)
        offs.push_back(l * 4);
    tb.warps[0].push_back(tb.storeValueOp(OpKind::LocalSt, offs, 3));
    tb.warps[0].push_back(tb.memOp(OpKind::LocalLd, offs));
    k.blocks.push_back(std::move(tb));
    RunResult r = runKernelWorkload(sys, std::move(k));
    EXPECT_EQ(r.stats.scratch.reads, 32u);
    EXPECT_EQ(r.stats.scratch.writes, 32u);
    EXPECT_EQ(r.stats.noc.totalFlitHops(), 0u); // never left the CU
}

TEST(ComputeUnitTest, StashKernelEndSelfInvalidates)
{
    SystemConfig cfg = tinyConfig(MemOrg::Stash);
    System sys(cfg);
    Kernel k;
    ThreadBlock tb;
    tb.localBytes = 128;
    TileSpec t;
    t.globalBase = gbase;
    t.fieldSize = 4;
    t.objectSize = 4;
    t.rowSize = 32;
    t.strideSize = 0;
    t.numStrides = 1;
    tb.addMaps.push_back(AddMapOp{0, t});
    tb.warps.resize(1);
    std::vector<Addr> offs;
    for (unsigned l = 0; l < 32; ++l)
        offs.push_back(l * 4);
    tb.warps[0].push_back(tb.memOp(OpKind::StashLd, offs, 0));
    k.blocks.push_back(std::move(tb));
    RunResult r = runKernelWorkload(sys, std::move(k));
    // Loaded (Valid) words were self-invalidated at kernel end.
    EXPECT_EQ(r.stats.stash.selfInvalidations, 32u);
}

TEST(ComputeUnitTest, GridSplitsAcrossCus)
{
    SystemConfig cfg = tinyConfig(MemOrg::Cache);
    cfg.numGpuCus = 4;
    cfg.numCpuCores = 4;
    System sys(cfg);
    RunResult r = runKernelWorkload(sys, storeKernel(8, 32));
    EXPECT_EQ(r.stats.gpu.threadBlocks, 8u);
    EXPECT_EQ(r.stats.gpu.kernels, 4u); // one launch per CU
    EXPECT_TRUE(r.validated);
}

} // namespace
} // namespace stashsim
