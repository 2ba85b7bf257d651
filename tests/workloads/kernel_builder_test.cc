/**
 * @file
 * Unit tests for the configuration lowering in TbBuilder: the same
 * portable body must produce the paper's per-configuration code
 * shapes (copy loops, DMA descriptors, AddMaps, global accesses).
 */

#include <gtest/gtest.h>

#include "workloads/kernel_builder.hh"

namespace stashsim
{
namespace
{

TileUse
stagedTile()
{
    TileUse use;
    use.tile.globalBase = 0x1000'0000;
    use.tile.fieldSize = 4;
    use.tile.objectSize = 64;
    use.tile.rowSize = 64;
    use.tile.numStrides = 1;
    use.readIn = true;
    use.writeOut = true;
    return use;
}

unsigned
countOps(const ThreadBlock &tb, OpKind k)
{
    unsigned n = 0;
    for (const auto &w : tb.warps) {
        for (const auto &op : w)
            n += op.kind == k ? 1 : 0;
    }
    return n;
}

ThreadBlock
buildSimple(MemOrg org)
{
    TbBuilder b(org, 2);
    const unsigned t = b.addTile(stagedTile());
    for (unsigned w = 0; w < 2; ++w) {
        b.accessTile(w, t, laneElems(w * 32, 32), false);
        b.compute(w, 1, 1);
        b.accessTile(w, t, laneElems(w * 32, 32), true);
    }
    return b.build();
}

TEST(TbBuilderTest, ScratchGetsCopyLoopsAroundLocalBody)
{
    ThreadBlock tb = buildSimple(MemOrg::Scratch);
    EXPECT_EQ(tb.addMaps.size(), 0u);
    EXPECT_EQ(tb.dmaLoads.size(), 0u);
    // Copy-in: GlobalLd + LocalSt per 32 elements; copy-out mirrors.
    EXPECT_EQ(countOps(tb, OpKind::GlobalLd), 2u);
    EXPECT_EQ(countOps(tb, OpKind::GlobalSt), 2u);
    EXPECT_EQ(countOps(tb, OpKind::LocalLd), 2u + 2u); // body + out
    EXPECT_EQ(countOps(tb, OpKind::LocalSt), 2u + 2u); // in + body
    EXPECT_GT(countOps(tb, OpKind::Barrier), 0u);
    EXPECT_EQ(tb.localBytes, 64u * 4);
}

TEST(TbBuilderTest, ScratchGDGetsDmaDescriptors)
{
    ThreadBlock tb = buildSimple(MemOrg::ScratchGD);
    EXPECT_EQ(tb.dmaLoads.size(), 1u);
    EXPECT_EQ(tb.dmaStores.size(), 1u);
    EXPECT_EQ(countOps(tb, OpKind::GlobalLd), 0u);
    EXPECT_EQ(countOps(tb, OpKind::LocalLd), 2u); // body only
}

TEST(TbBuilderTest, CacheGoesGlobalWithIndexComputes)
{
    ThreadBlock tb = buildSimple(MemOrg::Cache);
    EXPECT_EQ(tb.localBytes, 0u);
    EXPECT_EQ(countOps(tb, OpKind::GlobalLd), 2u);
    EXPECT_EQ(countOps(tb, OpKind::GlobalSt), 2u);
    EXPECT_EQ(countOps(tb, OpKind::LocalLd), 0u);
    // One index-computation instruction per access plus the body's.
    EXPECT_EQ(countOps(tb, OpKind::Compute), 4u + 2u);
}

TEST(TbBuilderTest, StashGetsAddMapAndDirectAccess)
{
    ThreadBlock tb = buildSimple(MemOrg::Stash);
    ASSERT_EQ(tb.addMaps.size(), 1u);
    EXPECT_EQ(tb.addMaps[0].tile.objectSize, 64u);
    EXPECT_EQ(countOps(tb, OpKind::StashLd), 2u);
    EXPECT_EQ(countOps(tb, OpKind::StashSt), 2u);
    EXPECT_EQ(countOps(tb, OpKind::GlobalLd), 0u);
    // No index computes for stash accesses, only the body's.
    EXPECT_EQ(countOps(tb, OpKind::Compute), 2u);
}

TEST(TbBuilderTest, StashExecutesFewerInstructionsThanScratch)
{
    EXPECT_LT(buildSimple(MemOrg::Stash).dynamicInstructions(),
              buildSimple(MemOrg::Scratch).dynamicInstructions());
}

TEST(TbBuilderTest, OriginallyGlobalConvertedOnlyByGVariants)
{
    auto build = [](MemOrg org) {
        TbBuilder b(org, 1);
        TileUse use = stagedTile();
        use.originallyGlobal = true;
        const unsigned t = b.addTile(use);
        b.accessTile(0, t, laneElems(0, 32), false);
        return b.build();
    };
    EXPECT_EQ(countOps(build(MemOrg::Scratch), OpKind::GlobalLd), 1u);
    EXPECT_EQ(countOps(build(MemOrg::Stash), OpKind::GlobalLd), 1u);
    EXPECT_EQ(countOps(build(MemOrg::StashG), OpKind::StashLd), 1u);
    EXPECT_GT(countOps(build(MemOrg::ScratchG), OpKind::LocalSt), 0u);
}

TEST(TbBuilderTest, UnconvertibleStaysGlobalEverywhere)
{
    auto build = [](MemOrg org) {
        TbBuilder b(org, 1);
        TileUse use = stagedTile();
        use.originallyGlobal = true;
        use.convertible = false;
        const unsigned t = b.addTile(use);
        b.accessTile(0, t, laneElems(0, 32), false);
        return b.build();
    };
    for (MemOrg org : {MemOrg::ScratchG, MemOrg::ScratchGD,
                       MemOrg::StashG}) {
        EXPECT_EQ(countOps(build(org), OpKind::GlobalLd), 1u)
            << memOrgName(org);
    }
}

TEST(TbBuilderTest, TemporaryTilesNeverMove)
{
    auto build = [](MemOrg org) {
        TbBuilder b(org, 1);
        TileUse use = stagedTile();
        use.temporary = true;
        const unsigned t = b.addTile(use);
        b.accessTile(0, t, laneElems(0, 32), true);
        return b.build();
    };
    ThreadBlock scratch = build(MemOrg::Scratch);
    EXPECT_EQ(countOps(scratch, OpKind::GlobalLd), 0u);
    EXPECT_EQ(countOps(scratch, OpKind::GlobalSt), 0u);
    ThreadBlock stash = build(MemOrg::Stash);
    EXPECT_EQ(stash.addMaps.size(), 0u); // temporary mode: no AddMap
    EXPECT_EQ(countOps(stash, OpKind::StashSt), 1u);
}

TEST(TbBuilderTest, RestageLowersPerConfiguration)
{
    auto build = [](MemOrg org) {
        TbBuilder b(org, 1);
        TileUse use = stagedTile();
        use.writeOut = false;
        const unsigned t = b.addTile(use);
        b.accessTile(0, t, laneElems(0, 32), false);
        TileSpec next = use.tile;
        next.globalBase += 0x1000;
        b.restage(t, next);
        b.accessTile(0, t, laneElems(0, 32), false);
        return b.build();
    };
    EXPECT_EQ(countOps(build(MemOrg::Stash), OpKind::Remap), 1u);
    EXPECT_EQ(countOps(build(MemOrg::ScratchGD), OpKind::DmaXfer), 1u);
    EXPECT_GT(countOps(build(MemOrg::Scratch), OpKind::GlobalLd), 1u);
    // Cache: the second access simply targets the new addresses.
    ThreadBlock cache = build(MemOrg::Cache);
    EXPECT_EQ(countOps(cache, OpKind::Remap), 0u);
    Addr second = 0;
    for (const auto &op : cache.warps[0]) {
        if (op.kind == OpKind::GlobalLd)
            second = cache.lanes(op)[0];
    }
    EXPECT_EQ(second, stagedTile().tile.globalBase + 0x1000);
}

TEST(TbBuilderTest, WarpsNeverEndOnABarrier)
{
    for (MemOrg org : {MemOrg::Scratch, MemOrg::ScratchGD,
                       MemOrg::Cache, MemOrg::Stash}) {
        ThreadBlock tb = buildSimple(org);
        for (const auto &w : tb.warps) {
            ASSERT_FALSE(w.empty());
            EXPECT_NE(w.back().kind, OpKind::Barrier)
                << memOrgName(org);
        }
    }
}

TEST(LaneElemsTest, GeneratesStridedIndices)
{
    auto v = laneElems(10, 4, 3);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], 10u);
    EXPECT_EQ(v[3], 19u);
}

} // namespace
} // namespace stashsim
