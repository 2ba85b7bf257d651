/**
 * @file
 * Integration tests for the stash: implicit loads, compact transfer,
 * registration, lazy writebacks, AddMap/ChgMap semantics, usage
 * modes, remote requests through the directory, cross-kernel reuse,
 * and the replication optimization.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
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
                                        NodeId(0), stashParams());
        fabric->registerObject(NodeId(0), Unit::Stash, stash.get());
        fabric->registerCore(0, NodeId(0));

        tlb = std::make_unique<Tlb>(pageTable, 64);
        cache = std::make_unique<L1Cache>(eq, *fabric, *tlb, 1,
                                          NodeId(1),
                                          L1Cache::Params{});
        fabric->registerObject(NodeId(1), Unit::L1, cache.get());
        fabric->registerCore(1, NodeId(1));
    }

    virtual Stash::Params stashParams() const { return {}; }

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

TEST_F(StashBench, SameTickMissesSendTheirReadReqsInIssueOrder)
{
    // The read requests of a miss wait out its translation in one
    // FIFO per stash; it is sound because every miss's translation
    // takes the same delay, so the requests leave in issue order.
    initField(gbase, 32);
    const MapIndex m = stash->addMap(0, aosTile(gbase, 32)).idx;
    std::vector<std::pair<Tick, PhysAddr>> sent;
    fabric->setTestDropFilter([&](NodeId, NodeId, const Msg &msg) {
        if (msg.type == MsgType::ReadReq)
            sent.emplace_back(eq.curTick(), msg.linePA);
        return false;
    });
    // Word 16 first, then word 0: issue order is not address order.
    unsigned done = 0;
    for (LocalAddr a : {LocalAddr(64), LocalAddr(0)}) {
        stash->access(a, wordBit(0), false, nullptr, m,
                      [&](const LineData &) { ++done; });
    }
    eq.run();
    EXPECT_EQ(done, 2u);
    const Tick xlat = Stash::Params{}.translationCycles * gpuClockPeriod;
    ASSERT_EQ(sent.size(), 2u);
    EXPECT_EQ(sent[0], std::make_pair(xlat, lineBase(pageTable.translate(
                                                 gbase + 16 * 64))));
    EXPECT_EQ(sent[1], std::make_pair(xlat, lineBase(pageTable.translate(
                                                 gbase + 0 * 64))));
}

/**
 * Wait-list tests: a stash with two miss slots, fed loads without
 * draining the queue between them.  In the AoS tile every stash word
 * lives on its own memory line, so a load of k missing words needs k
 * miss lines.
 */
class StashWaitList : public StashBench
{
  protected:
    Stash::Params
    stashParams() const override
    {
        Stash::Params p;
        p.mshrs = 2;
        return p;
    }

    struct Completion
    {
        char name;
        Tick tick;
        Counter loadMisses; //!< loads that had proceeded by then
        LineData data;
    };

    /** Non-blocking load of stash @p words, all on one stash line. */
    void
    submit(char name, std::initializer_list<unsigned> words, MapIndex idx)
    {
        WordMask mask = 0;
        for (unsigned w : words)
            mask |= wordBit(w % wordsPerLine);
        const LocalAddr line = *words.begin() / wordsPerLine * lineBytes;
        stash->access(line, mask, false, nullptr, idx,
                      [this, name](const LineData &d) {
                          log.push_back(Completion{
                              name, eq.curTick(),
                              stash->stats().loadMisses, d});
                      });
    }

    /** Non-blocking store of @p v to stash word @p w. */
    void
    store(unsigned w, std::uint32_t v, MapIndex idx)
    {
        LineData d;
        d.w[w % wordsPerLine] = v;
        stash->access(w / wordsPerLine * lineBytes, wordBit(w % wordsPerLine),
                      true, &d, idx, [](const LineData &) {});
    }

    const Completion &
    at(char name) const
    {
        for (const Completion &c : log) {
            if (c.name == name)
                return c;
        }
        ADD_FAILURE() << name << " never completed";
        static const Completion never{};
        return never;
    }

    std::string
    order() const
    {
        std::string o;
        for (const Completion &c : log)
            o += c.name;
        return o;
    }

    std::vector<Completion> log;
};

TEST_F(StashWaitList, LaterOneLineLoadPassesEarlierTwoLineLoad)
{
    initField(gbase, 64);
    const MapIndex m = stash->addMap(0, aosTile(gbase, 64)).idx;
    submit('a', {0}, m);
    submit('b', {16}, m);
    submit('c', {32, 33}, m); // needs both slots
    submit('d', {48}, m);     // needs one
    EXPECT_EQ(stash->stats().loadMisses, 2u) << "c and d park";
    eq.run();

    // The first release frees one slot: d fits, c does not.  c
    // proceeds once the second slot frees too.
    ASSERT_EQ(order().size(), 4u);
    EXPECT_EQ(log[0].loadMisses, 3u) << "d proceeded at the first release";
    EXPECT_LT(at('d').tick, at('c').tick);
    EXPECT_EQ(at('c').loadMisses, 4u);
    EXPECT_EQ(at('c').data.w[0], 132u);
    EXPECT_EQ(at('c').data.w[1], 133u);
    EXPECT_EQ(at('d').data.w[0], 148u);
}

TEST_F(StashWaitList, ParkedLoadProceedsOnceItsLinesArePending)
{
    initField(gbase, 64);
    const MapIndex m = stash->addMap(0, aosTile(gbase, 64)).idx;
    // A second tile over the same objects, one word further in: its
    // word 32 shares a memory line with the first tile's word 32.
    TileSpec next = aosTile(gbase + 4, 64);
    const MapIndex n = stash->addMap(1024, next).idx;
    submit('a', {0}, m);
    submit('b', {16}, m);
    submit('e', {256 + 32}, n); // memory line X, parks
    submit('c', {32}, m);       // memory line X too, parks

    // At the first release e takes the free slot and requests X; c
    // then needs no new line and proceeds in the same release.
    while (stash->stats().loadMisses == 2 && eq.runOne()) {
    }
    EXPECT_EQ(stash->stats().loadMisses, 4u);
    eq.run();
    ASSERT_EQ(order().size(), 4u);
    EXPECT_EQ(at('c').data.w[0], 132u);
}

TEST_F(StashWaitList, SuppliedWordsCompleteAsAHitAtTheNextRelease)
{
    initField(gbase, 64);
    const MapIndex m = stash->addMap(0, aosTile(gbase, 64)).idx;
    submit('a', {0}, m);
    submit('d', {32}, m);
    // c needs word 0 (in flight for a) and two new lines: it parks
    // and needs both slots.
    submit('c', {0, 1, 2}, m);
    // Stores supply c's other two words while it waits.
    store(1, 7001, m);
    store(2, 7002, m);
    eq.run();

    // a's fill, the first release, supplies word 0; at that release c
    // finds every word readable and hits.
    ASSERT_EQ(order(), "acd");
    EXPECT_EQ(at('c').tick, at('a').tick);
    EXPECT_EQ(stash->stats().loadMisses, 2u);
    EXPECT_EQ(stash->stats().loadHits, 1u);
    EXPECT_EQ(at('c').data.w[0], 100u);
    EXPECT_EQ(at('c').data.w[1], 7001u);
    EXPECT_EQ(at('c').data.w[2], 7002u);
}

TEST_F(StashWaitList, ParkedReplicaLoadCopiesAWordThatBecameValid)
{
    initField(gbase, 32);
    const TileSpec t = aosTile(gbase, 32);
    const MapIndex m1 = stash->addMap(0, t).idx;
    const MapIndex m2 = stash->addMap(1024, t).idx; // replica of m1
    ASSERT_TRUE(stash->mapTable().entry(m2).reuseBit);
    submit('x', {0}, m1);
    submit('y', {1}, m1);
    // c's replica words 0 and 1 are in flight, 2 and 3 need new lines.
    submit('c', {256, 257, 258, 259}, m2);

    // At each of x's and y's releases c copies the replica word that
    // fill made Valid; it proceeds once both slots are free.
    while (stash->stats().replicationHits == 0 &&
           stash->stats().loadMisses == 2 && eq.runOne()) {
    }
    EXPECT_EQ(stash->stats().replicationHits, 1u);
    EXPECT_EQ(stash->stats().loadMisses, 2u) << "c is still parked";
    eq.run();
    ASSERT_EQ(order(), "xyc");
    EXPECT_EQ(stash->stats().replicationHits, 2u);
    EXPECT_EQ(at('c').loadMisses, 3u);
    for (unsigned w = 0; w < 4; ++w)
        EXPECT_EQ(at('c').data.w[w], 100 + w);
}

/** Two map entries, so AddMap recycles the unpinned one. */
class StashWaitListTwoMaps : public StashWaitList
{
  protected:
    Stash::Params
    stashParams() const override
    {
        Stash::Params p = StashWaitList::stashParams();
        p.mapEntries = 2;
        return p;
    }
};

TEST_F(StashWaitListTwoMaps, RemapDropsAPageAParkedLoadReinstalls)
{
    initField(gbase, 32);
    const Addr page = pageBase(gbase);
    const MapIndex m = stash->addMap(0, aosTile(gbase, 32)).idx;
    // Another tile on the same page becomes the page's latest user.
    const MapIndex other =
        stash->addMap(1024, aosTile(gbase + 2048, 16)).idx;
    stash->releaseMap(other);
    submit('a', {16}, m);
    submit('b', {17}, m);
    submit('c', {0, 1}, m); // needs both slots
    // Recycling the other entry drops the shared page.
    stash->addMap(2048, aosTile(gbase + 0x10000, 16));
    EXPECT_FALSE(stash->vpMapTable().contains(page));

    // At the first release c still lacks a slot, but its re-try
    // translates its words again and re-installs the page.
    while (!stash->vpMapTable().contains(page) &&
           stash->stats().loadMisses == 2 && eq.runOne()) {
    }
    EXPECT_EQ(stash->stats().loadMisses, 2u) << "c is still parked";
    EXPECT_TRUE(stash->vpMapTable().contains(page));
    eq.run();
    ASSERT_EQ(order().size(), 3u);
    EXPECT_EQ(at('c').data.w[0], 100u);
    EXPECT_EQ(at('c').data.w[1], 101u);
}

TEST_F(StashWaitList, VpMapCountsOnlyTheRetriesTheWaitListMakes)
{
    initField(gbase, 256);
    const MapIndex m = stash->addMap(0, aosTile(gbase, 256)).idx;
    const std::uint64_t lookups = stash->vpMapTable().accesses();
    const Counter counted = stash->stats().vpMapAccesses;
    // Each load on its own stash line, so no fill touches another
    // load's line.
    constexpr unsigned loads = 12;
    for (unsigned i = 0; i < loads; ++i)
        submit(char('a' + i), {i * wordsPerLine + i % 3}, m);
    eq.run();

    ASSERT_EQ(order().size(), loads);
    // Two proceed on arrival; each of the other ten is translated
    // when it parks and once more at the release it proceeds at.
    EXPECT_EQ(stash->stats().vpMapAccesses - counted, loads);
    EXPECT_EQ(stash->vpMapTable().accesses() - lookups, 2 * loads - 2);
}

TEST_F(StashWaitList, DumpNamesTheOldestParkedLoads)
{
    fabric->setTestDropFilter([](NodeId, NodeId, const Msg &msg) {
        return msg.type == MsgType::ReadResp;
    });
    const MapIndex m = stash->addMap(0, aosTile(gbase, 64)).idx;
    submit('a', {0}, m);
    submit('b', {16}, m);
    submit('c', {32, 33}, m);
    submit('d', {48}, m);
    store(49, 1, m); // touches d's line: its wake is due
    eq.run();
    EXPECT_TRUE(log.empty());

    std::ostringstream os;
    stash->dumpState(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("2 pending fill line(s), 2 parked load(s)"),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("parked #0 stash line 2 map[0] need=2 of 2 miss "
                        "line(s), no wake pending"),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("parked #1 stash line 3 map[0] need=1 of 1 miss "
                        "line(s), wake pending"),
              std::string::npos)
        << dump;
}

/**
 * Property: seeded bursts of non-blocking loads through the 2-slot
 * stash, on a mapping and its same-tile replica, return what memory
 * holds and drain.  Between bursts the stash stores through the
 * older mapping and the peer L1 stores without waiting, so
 * registrations move and InvReqs reach lines with parked loads.
 * Each burst reads only words no store of its round is writing.
 */
class StashWaitListProperty : public StashWaitList,
                              public ::testing::WithParamInterface<unsigned>
{
};

TEST_P(StashWaitListProperty, RandomBurstsReturnMemoryValues)
{
    std::uint64_t seed = GetParam();
    auto rng = [&seed]() {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        return unsigned(seed >> 33);
    };

    constexpr unsigned elements = 64;
    initField(gbase, elements);
    std::vector<std::uint32_t> ref(elements);
    for (unsigned i = 0; i < elements; ++i)
        ref[i] = 100 + i;
    const TileSpec t = aosTile(gbase, elements);
    const MapIndex older = stash->addMap(0, t).idx;
    const MapIndex replica = stash->addMap(1024, t).idx;
    ASSERT_TRUE(stash->mapTable().entry(replica).reuseBit);

    struct Read
    {
        unsigned element;
        bool done = false;
        std::uint32_t got = 0;
    };
    for (unsigned round = 0; round < 12; ++round) {
        std::vector<bool> written(elements, false);
        for (unsigned k = 0; k < 6; ++k) {
            const unsigned i = rng() % elements;
            const std::uint32_t v = rng();
            stashStore(LocalAddr(i * wordBytes), v, older);
            ref[i] = v;
        }
        unsigned cpu_stores = 0, cpu_done = 0;
        for (unsigned k = 0; k < 4; ++k) {
            const unsigned i = rng() % elements;
            const std::uint32_t v = rng();
            LineData d;
            d.w[lineWord(gbase + i * 64)] = v;
            cache->access(gbase + i * 64, wordBit(lineWord(gbase + i * 64)),
                          true, &d,
                          [&cpu_done](const LineData &) { ++cpu_done; });
            ++cpu_stores;
            ref[i] = v;
            written[i] = true;
        }
        // A kernel boundary: Valid copies, possibly stale, drop.
        stash->endKernel();

        std::vector<Read> reads;
        reads.reserve(32);
        for (unsigned k = 0; k < 24; ++k) {
            // One or two words of one stash line, so no load needs
            // more lines than the stash has slots.
            const unsigned line = rng() % (elements / wordsPerLine);
            const unsigned w0 = line * wordsPerLine + rng() % wordsPerLine;
            const unsigned w1 = line * wordsPerLine + rng() % wordsPerLine;
            if (written[w0] || written[w1])
                continue;
            const bool via_replica = rng() % 2 == 0;
            const LocalAddr base = via_replica ? 1024 : 0;
            const std::size_t first = reads.size();
            reads.push_back(Read{w0});
            if (w1 != w0)
                reads.push_back(Read{w1});
            const std::size_t last = reads.size();
            stash->access(base + line * lineBytes,
                          WordMask(wordBit(w0 % wordsPerLine) |
                                   wordBit(w1 % wordsPerLine)),
                          false, nullptr, via_replica ? replica : older,
                          [&reads, first, last](const LineData &d) {
                              for (std::size_t r = first; r < last; ++r) {
                                  reads[r].got =
                                      d.w[reads[r].element % wordsPerLine];
                                  reads[r].done = true;
                              }
                          });
        }
        eq.run();
        EXPECT_EQ(cpu_done, cpu_stores) << "round " << round;
        for (const Read &r : reads) {
            ASSERT_TRUE(r.done)
                << "round " << round << " element " << r.element;
            EXPECT_EQ(r.got, ref[r.element])
                << "round " << round << " element " << r.element;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StashWaitListProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

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
