/**
 * @file
 * Integration tests for the stash: implicit loads, compact transfer,
 * registration, lazy writebacks, AddMap/ChgMap semantics, usage
 * modes, remote requests through the directory, cross-kernel reuse,
 * and the replication optimization.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/stash.hh"
#include "mem/cache.hh"
#include "mem/llc.hh"
#include "mem/main_memory.hh"
#include "noc/mesh.hh"

namespace stashsim
{
namespace
{

/**
 * Testbench: one stash (core 0), one L1 cache (core 1, standing in
 * for a CPU), 16 LLC banks.
 */
class StashBench : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        mesh = std::make_unique<Mesh>(eq, MeshParams{});
        fabric = std::make_unique<Fabric>(*mesh);
        for (NodeId n = 0; n < 16; ++n) {
            backends.push_back(makeMemBackend(MemBackendConfig{}, eq,
                                              mem, gpuClockPeriod));
            llc.push_back(std::make_unique<LlcBank>(
                eq, *fabric, *backends.back(), n,
                LlcBank::Params{}));
            fabric->registerObject(n, Unit::Llc, llc.back().get());
        }
        stash = std::make_unique<Stash>(eq, *fabric, pageTable, 0,
                                        NodeId(0), Stash::Params{});
        fabric->registerObject(NodeId(0), Unit::Stash, stash.get());
        fabric->registerCore(0, NodeId(0));

        tlb = std::make_unique<Tlb>(pageTable, 64);
        cache = std::make_unique<L1Cache>(eq, *fabric, *tlb, 1,
                                          NodeId(1),
                                          L1Cache::Params{});
        fabric->registerObject(NodeId(1), Unit::L1, cache.get());
        fabric->registerCore(1, NodeId(1));
    }

    /** The standard AoS field tile: 4 B of every 64 B object. */
    TileSpec
    aosTile(Addr base, unsigned elements)
    {
        TileSpec t;
        t.globalBase = base;
        t.fieldSize = 4;
        t.objectSize = 64;
        t.rowSize = elements;
        t.strideSize = 0;
        t.numStrides = 1;
        return t;
    }

    void
    initField(Addr base, unsigned elements)
    {
        for (unsigned i = 0; i < elements; ++i)
            mem.writeWord(pageTable.translate(base + i * 64), 100 + i);
    }

    /** Blocking stash word load. */
    std::uint32_t
    stashLoad(LocalAddr a, MapIndex idx)
    {
        std::uint32_t v = 0;
        bool done = false;
        stash->access(a & ~LocalAddr(63),
                      wordBit((a / 4) % wordsPerLine), false, nullptr,
                      idx, [&](const LineData &d) {
                          v = d.w[(a / 4) % wordsPerLine];
                          done = true;
                      });
        eq.run();
        EXPECT_TRUE(done);
        return v;
    }

    void
    stashStore(LocalAddr a, std::uint32_t v, MapIndex idx)
    {
        LineData d;
        d.w[(a / 4) % wordsPerLine] = v;
        bool done = false;
        stash->access(a & ~LocalAddr(63),
                      wordBit((a / 4) % wordsPerLine), true, &d, idx,
                      [&](const LineData &) { done = true; });
        eq.run();
        EXPECT_TRUE(done);
    }

    /** Blocking word load via the peer L1 (the "CPU"). */
    std::uint32_t
    cpuLoad(Addr va)
    {
        std::uint32_t v = 0;
        cache->access(lineBase(va), wordBit(lineWord(va)), false,
                      nullptr, [&](const LineData &d) {
                          v = d.w[lineWord(va)];
                      });
        eq.run();
        return v;
    }

    void
    cpuStore(Addr va, std::uint32_t v)
    {
        LineData d;
        d.w[lineWord(va)] = v;
        cache->access(lineBase(va), wordBit(lineWord(va)), true, &d,
                      [&](const LineData &) {});
        eq.run();
    }

    Counter
    llcFills()
    {
        Counter n = 0;
        for (auto &b : llc)
            n += b->stats().fills;
        return n;
    }

    EventQueue eq;
    MainMemory mem;
    PageTable pageTable;
    std::unique_ptr<Mesh> mesh;
    std::unique_ptr<Fabric> fabric;
    std::vector<std::unique_ptr<MemBackend>> backends;
    std::vector<std::unique_ptr<LlcBank>> llc;
    std::unique_ptr<Stash> stash;
    std::unique_ptr<Tlb> tlb;
    std::unique_ptr<L1Cache> cache;
};

constexpr Addr gbase = 0x200000;

TEST_F(StashBench, FirstLoadImplicitlyFetches)
{
    initField(gbase, 32);
    auto r = stash->addMap(0, aosTile(gbase, 32));
    EXPECT_EQ(stashLoad(0, r.idx), 100u);
    EXPECT_EQ(stash->stats().loadMisses, 1u);
    EXPECT_EQ(stash->probeWord(0), WordState::Valid);
}

TEST_F(StashBench, SubsequentLoadsHitWithoutTranslation)
{
    initField(gbase, 32);
    auto r = stash->addMap(0, aosTile(gbase, 32));
    stashLoad(0, r.idx);
    const Counter xl = stash->stats().translations;
    EXPECT_EQ(stashLoad(0, r.idx), 100u);
    EXPECT_EQ(stash->stats().loadHits, 1u);
    EXPECT_EQ(stash->stats().translations, xl); // no new translation
}

TEST_F(StashBench, CompactStorageMapsStridedFields)
{
    // 32 fields of 64 B objects occupy 128 contiguous stash bytes.
    initField(gbase, 32);
    auto r = stash->addMap(0, aosTile(gbase, 32));
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(stashLoad(LocalAddr(i * 4), r.idx), 100 + i);
}

TEST_F(StashBench, CompactTransferMovesOnlyUsefulWords)
{
    // Each fetched field lives in its own memory line; the response
    // carries exactly one word per line (wordsOnly), so the fills
    // equal the accessed elements, not 16x that.
    initField(gbase, 32);
    auto r = stash->addMap(0, aosTile(gbase, 32));
    stashLoad(0, r.idx);
    EXPECT_EQ(llcFills(), 1u);
}

TEST_F(StashBench, StoreRegistersAndIsRemotelyVisible)
{
    auto r = stash->addMap(0, aosTile(gbase, 32));
    stashStore(0, 777, r.idx);
    EXPECT_EQ(stash->probeWord(0), WordState::Registered);
    // The CPU-side L1 load is forwarded to the stash through the
    // directory's (core, map index) record.
    EXPECT_EQ(cpuLoad(gbase), 777u);
    EXPECT_EQ(stash->stats().remoteHits, 1u);
}

TEST_F(StashBench, CpuProducedDataFlowsIn)
{
    cpuStore(gbase, 55);
    auto r = stash->addMap(0, aosTile(gbase, 32));
    EXPECT_EQ(stashLoad(0, r.idx), 55u);
    EXPECT_EQ(cache->stats().remoteHits, 1u);
}

TEST_F(StashBench, EndKernelKeepsRegisteredDropsValid)
{
    initField(gbase, 32);
    auto r = stash->addMap(0, aosTile(gbase, 32));
    stashLoad(0, r.idx);
    stashStore(4, 9, r.idx);
    stash->endKernel();
    EXPECT_EQ(stash->probeWord(0), WordState::Invalid);
    EXPECT_EQ(stash->probeWord(4), WordState::Registered);
}

TEST_F(StashBench, LazyWritebackOnlyOnReclaim)
{
    auto r = stash->addMap(0, aosTile(gbase, 32));
    stashStore(0, 11, r.idx);
    stash->endThreadBlock(0, 128);
    stash->endKernel();
    // Nothing written back yet: the writeback bit merely arms it.
    EXPECT_EQ(stash->stats().wordsWrittenBack, 0u);
    EXPECT_TRUE(stash->chunkWriteback(0));

    // A new, unrelated mapping claiming the space triggers it.
    auto r2 = stash->addMap(0, aosTile(gbase + 0x10000, 32));
    eq.run();
    (void)r2;
    EXPECT_GE(stash->stats().wordsWrittenBack, 1u);
    EXPECT_EQ(cpuLoad(gbase), 11u); // data survived via the LLC
}

TEST_F(StashBench, TemporaryModeNeedsNoMapping)
{
    stashStore(0, 123, unmappedIndex);
    EXPECT_EQ(stashLoad(0, unmappedIndex), 123u);
    EXPECT_EQ(stash->stats().translations, 0u);
}

TEST_F(StashBench, NonCoherentStoresStayLocal)
{
    mem.writeWord(pageTable.translate(gbase), 5);
    TileSpec t = aosTile(gbase, 32);
    t.isCoherent = false;
    auto r = stash->addMap(0, t);
    stashStore(0, 42, r.idx);
    EXPECT_EQ(stash->probeWord(0), WordState::Valid); // not registered
    // Reclaim discards instead of writing back.
    stash->endThreadBlock(0, 128);
    stash->addMap(0, aosTile(gbase + 0x20000, 32));
    eq.run();
    EXPECT_EQ(cpuLoad(gbase), 5u); // global value untouched
}

TEST_F(StashBench, ChgMapRemapsAndWritesBackOldData)
{
    auto r = stash->addMap(0, aosTile(gbase, 32));
    stashStore(0, 31, r.idx);
    stash->chgMap(r.idx, 0, aosTile(gbase + 0x40000, 32));
    eq.run();
    EXPECT_EQ(cpuLoad(gbase), 31u); // old mapping's dirty data pushed
    EXPECT_EQ(stash->probeWord(0), WordState::Invalid);
}

TEST_F(StashBench, ChgMapCoherentToNonCoherentWritesBack)
{
    TileSpec t = aosTile(gbase, 32);
    auto r = stash->addMap(0, t);
    stashStore(0, 61, r.idx);
    TileSpec nc = t;
    nc.isCoherent = false;
    stash->chgMap(r.idx, 0, nc);
    eq.run();
    EXPECT_EQ(cpuLoad(gbase), 61u);
}

TEST_F(StashBench, ChgMapNonCoherentToCoherentRegistersDirtyWords)
{
    // Non-coherent stores stay local.  Converting the mapping to
    // coherent registers every readable word of its dirty chunks, so
    // the directory forwards CPU loads of them to the stash.
    initField(gbase, 32);
    TileSpec t = aosTile(gbase, 32);
    t.isCoherent = false;
    auto r = stash->addMap(0, t);
    stashStore(0, 71, r.idx);
    stashStore(8, 72, r.idx);
    EXPECT_EQ(stashLoad(4, r.idx), 101u);  // dirty chunk, Valid
    EXPECT_EQ(stashLoad(64, r.idx), 116u); // clean chunk, Valid
    EXPECT_EQ(stash->probeWord(0), WordState::Valid);

    const Counter vp = stash->stats().vpMapAccesses;
    TileSpec coherent = t;
    coherent.isCoherent = true;
    stash->chgMap(r.idx, 0, coherent);
    eq.run();
    EXPECT_EQ(stash->stats().vpMapAccesses, vp + 3);
    EXPECT_EQ(stash->probeWord(0), WordState::Registered);
    EXPECT_EQ(stash->probeWord(4), WordState::Registered);
    EXPECT_EQ(stash->probeWord(8), WordState::Registered);
    EXPECT_EQ(stash->probeWord(12), WordState::Invalid);
    EXPECT_EQ(stash->probeWord(64), WordState::Valid);

    EXPECT_EQ(cpuLoad(gbase), 71u);
    EXPECT_EQ(cpuLoad(gbase + 64), 101u);
    EXPECT_EQ(cpuLoad(gbase + 2 * 64), 72u);
    EXPECT_EQ(stash->stats().remoteHits, 3u);
}

TEST_F(StashBench, CrossKernelReuseSameLocation)
{
    // Kernel 1 writes; kernel 2 maps the same tile at the same stash
    // location: data is served in place — no misses, no writebacks.
    TileSpec t = aosTile(gbase, 32);
    auto r1 = stash->addMap(0, t);
    for (unsigned i = 0; i < 32; ++i)
        stashStore(LocalAddr(i * 4), 500 + i, r1.idx);
    stash->endThreadBlock(0, 128);
    stash->endKernel();

    auto r2 = stash->addMap(0, t);
    eq.run();
    const Counter misses = stash->stats().loadMisses;
    const Counter wb = stash->stats().wordsWrittenBack;
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(stashLoad(LocalAddr(i * 4), r2.idx), 500 + i);
    EXPECT_EQ(stash->stats().loadMisses, misses);
    EXPECT_EQ(stash->stats().wordsWrittenBack, wb);
}

TEST_F(StashBench, ReplicationServesFromOlderCopy)
{
    // The same tile mapped at a different stash location: misses are
    // served by a local copy (Section 4.5), not the memory system.
    initField(gbase, 32);
    TileSpec t = aosTile(gbase, 32);
    auto r1 = stash->addMap(0, t);
    for (unsigned i = 0; i < 32; ++i)
        stashLoad(LocalAddr(i * 4), r1.idx);
    stash->endThreadBlock(0, 128);
    stash->endKernel(); // valid words drop...

    auto r1b = stash->addMap(0, t); // ...so re-fetch once more
    for (unsigned i = 0; i < 32; ++i)
        stashLoad(LocalAddr(i * 4), r1b.idx);

    const Counter fills = llcFills();
    auto r2 = stash->addMap(1024, t);
    EXPECT_EQ(stashLoad(1024, r2.idx), 100u);
    EXPECT_GE(stash->stats().replicationHits, 1u);
    EXPECT_EQ(llcFills(), fills); // no new memory traffic
}

TEST_F(StashBench, ReplicationDisabledByConfig)
{
    Stash::Params p;
    p.replicationOpt = false;
    Stash s2(eq, *fabric, pageTable, 2, NodeId(2), p);
    fabric->registerObject(NodeId(2), Unit::Stash, &s2);
    fabric->registerCore(2, NodeId(2));

    initField(gbase, 32);
    TileSpec t = aosTile(gbase, 32);
    auto r1 = s2.addMap(0, t);
    EXPECT_FALSE(s2.mapTable().entry(r1.idx).reuseBit);
    auto r2 = s2.addMap(1024, t);
    EXPECT_FALSE(s2.mapTable().entry(r2.idx).reuseBit);
}

TEST_F(StashBench, RegistrationStealInvalidatesStashCopy)
{
    auto r = stash->addMap(0, aosTile(gbase, 32));
    stashStore(0, 1, r.idx);
    cpuStore(gbase, 2); // the CPU takes ownership
    eq.run();
    EXPECT_EQ(stash->probeWord(0), WordState::Invalid);
    EXPECT_EQ(stashLoad(0, r.idx), 2u); // re-fetched, forwarded
}

TEST_F(StashBench, MapReplacementDrainsDirtyData)
{
    // Exhaust the 64-entry circular map so the first entry (with
    // armed writebacks) is replaced; its data must reach the LLC.
    TileSpec t0 = aosTile(gbase, 32);
    auto r0 = stash->addMap(0, t0);
    stashStore(0, 314, r0.idx);
    stash->endThreadBlock(0, 128);
    stash->releaseMap(r0.idx);
    stash->endKernel();

    for (unsigned i = 0; i < 64; ++i) {
        // Distinct tiles, rotating through distinct stash space; all
        // beyond the first chunk so the armed chunk 0 survives until
        // entry replacement itself drains it.
        auto r = stash->addMap(
            LocalAddr(1024 + (i % 8) * 1024),
            aosTile(gbase + 0x100000 + i * 0x4000, 32));
        stash->releaseMap(r.idx);
        eq.run();
    }
    EXPECT_EQ(cpuLoad(gbase), 314u);
}

TEST_F(StashBench, AddMapValidatesArguments)
{
    EXPECT_THROW(stash->addMap(3, aosTile(gbase, 32)), // misaligned
                 std::runtime_error);
    TileSpec bad = aosTile(gbase, 32);
    bad.fieldSize = 0;
    EXPECT_THROW(stash->addMap(0, bad), std::runtime_error);
    TileSpec huge = aosTile(gbase, 16 * 1024);
    EXPECT_THROW(stash->addMap(0, huge), std::runtime_error);
}

/** Parameterized sweep: loads/stores across tile geometries. */
struct StashShape
{
    unsigned fieldWords;
    unsigned objectBytes;
    unsigned elements;
};

class StashShapes : public StashBench,
                    public ::testing::WithParamInterface<StashShape>
{
};

TEST_P(StashShapes, RoundTripThroughMemory)
{
    const StashShape &s = GetParam();
    TileSpec t;
    t.globalBase = gbase;
    t.fieldSize = s.fieldWords * 4;
    t.objectSize = s.objectBytes;
    t.rowSize = s.elements;
    t.strideSize = 0;
    t.numStrides = 1;

    auto r = stash->addMap(0, t);
    for (unsigned i = 0; i < t.mappedBytes() / 4; ++i)
        stashStore(LocalAddr(i * 4), 9000 + i, r.idx);
    stash->endThreadBlock(0, t.mappedBytes());
    stash->flushAll();
    eq.run();

    for (unsigned i = 0; i < t.mappedBytes() / 4; ++i) {
        const std::uint32_t off = i * 4;
        const Addr ga = t.globalAddrOf(off);
        EXPECT_EQ(cpuLoad(ga), 9000 + i) << "word " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StashShapes,
    ::testing::Values(StashShape{1, 64, 32},   // classic AoS field
                      StashShape{1, 4, 256},   // dense array
                      StashShape{2, 32, 64},   // two-word field
                      StashShape{4, 16, 64},   // whole object
                      StashShape{1, 128, 16})); // sparse objects

} // namespace
} // namespace stashsim
