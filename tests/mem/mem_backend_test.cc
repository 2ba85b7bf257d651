/**
 * @file
 * Unit tests of the pluggable memory backends (src/mem/backend):
 * the latency contract of each model, completion-time sampling,
 * STT-MRAM write-pausing and read-port stalls, the SCM DRAM-cache's
 * hit/miss/spill paths and channel serialization, the LLC bank's
 * accept/serve invariant (an in-service line is never an eviction
 * victim), and the LLC's victim scan, dirty writebacks and flush.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "config/system_config.hh"
#include "mem/backend/mem_backend.hh"
#include "mem/backend/scmcache_backend.hh"
#include "mem/backend/sttmram_backend.hh"
#include "mem/coherence/msg.hh"
#include "mem/fabric.hh"
#include "mem/llc.hh"
#include "mem/main_memory.hh"
#include "noc/mesh.hh"
#include "snapshot/snapshot.hh"

namespace stashsim
{
namespace
{

TEST(MemBackendFactoryTest, BuildsEveryRegisteredKind)
{
    EventQueue eq;
    MainMemory mem;
    for (const MemBackendInfo &info : memBackendList()) {
        MemBackendConfig cfg;
        cfg.kind = info.kind;
        auto b = makeMemBackend(cfg, eq, mem, gpuClockPeriod);
        ASSERT_NE(b, nullptr) << info.name;
        EXPECT_EQ(b->kind(), info.kind) << info.name;
        EXPECT_STREQ(b->name(), info.name);
    }
}

TEST(FixedBackendTest, DefaultLatencyAndCompletionTimeSampling)
{
    EventQueue eq;
    MainMemory mem;
    mem.writeWord(0x1000, 0x11);
    auto b = makeMemBackend(MemBackendConfig{}, eq, mem,
                            gpuClockPeriod);

    Tick doneTick = 0;
    LineData got{};
    b->readLine(0x1000, [&](const LineData &d) {
        doneTick = eq.curTick();
        got = d;
    });
    // A write landing between request and completion must be visible
    // in the fill — the classic inline model sampled at completion.
    eq.scheduleIn(10, [&] { mem.writeWord(0x1000, 0x42); });
    eq.run();

    EXPECT_EQ(doneTick, Tick(168) * gpuClockPeriod);
    EXPECT_EQ(got.w[0], 0x42u);
    EXPECT_EQ(b->stats().reads, 1u);

    // Writes commit functionally right away (fire-and-forget).
    LineData d{};
    d.w[1] = 0x77;
    b->writeLine(0x1000, wordBit(1), d);
    EXPECT_EQ(mem.readWord(0x1000 + 4), 0x77u);
    EXPECT_EQ(b->stats().writes, 1u);
}

TEST(SttMramBackendTest, UnloadedReadLatency)
{
    EventQueue eq;
    MainMemory mem;
    MemBackendConfig cfg;
    cfg.kind = MemBackendKind::SttMram;
    SttMramBackend b(cfg, eq, mem, 1); // clock 1: ticks == cycles

    Tick doneTick = 0;
    b.readLine(0x1000, [&](const LineData &) { doneTick = eq.curTick(); });
    eq.run();
    EXPECT_EQ(doneTick, Tick(cfg.sttReadCycles));
    EXPECT_EQ(b.stats().readStallTicks, 0u);
    EXPECT_EQ(b.stats().writePauses, 0u);
}

TEST(SttMramBackendTest, ReadPausesPendingWrites)
{
    EventQueue eq;
    MainMemory mem;
    MemBackendConfig cfg;
    cfg.kind = MemBackendKind::SttMram;
    SttMramBackend b(cfg, eq, mem, 1);

    b.writeLine(0x1000, fullLineMask, LineData{}); // completes at 450
    ASSERT_EQ(b.pendingWrites(), 1u);

    // The read preempts the in-flight write: it is not delayed itself
    // (queue far from full), but the write is suspended for the
    // read's 140-cycle service time and now completes at 590.
    Tick doneTick = 0;
    b.readLine(0x2000, [&](const LineData &) { doneTick = eq.curTick(); });
    eq.run();
    EXPECT_EQ(doneTick, Tick(140));
    EXPECT_EQ(b.stats().writePauses, 1u);
    EXPECT_EQ(b.stats().readStallTicks, 0u);

    std::size_t at589 = 99, at591 = 99;
    eq.scheduleIn(589 - eq.curTick(),
                  [&] { at589 = b.pendingWrites(); });
    eq.scheduleIn(591 - eq.curTick(),
                  [&] { at591 = b.pendingWrites(); });
    eq.run();
    EXPECT_EQ(at589, 1u) << "write should still be paused-shifted";
    EXPECT_EQ(at591, 0u);
}

TEST(SttMramBackendTest, FullWriteQueueStallsRead)
{
    EventQueue eq;
    MainMemory mem;
    MemBackendConfig cfg;
    cfg.kind = MemBackendKind::SttMram;
    cfg.sttWriteQueue = 2;
    SttMramBackend b(cfg, eq, mem, 1);

    // Writes serialize on the write port: done at 450 and 900.
    b.writeLine(0x1000, fullLineMask, LineData{});
    b.writeLine(0x2000, fullLineMask, LineData{});
    ASSERT_EQ(b.pendingWrites(), 2u);

    // Queue full: the read waits out the head write (450), then
    // preempts the survivor (900 -> shifted to 1040 by the pause).
    Tick doneTick = 0;
    b.readLine(0x3000, [&](const LineData &) { doneTick = eq.curTick(); });
    eq.run();
    EXPECT_EQ(doneTick, Tick(450 + 140));
    EXPECT_EQ(b.stats().readStallTicks, 450u);
    EXPECT_EQ(b.stats().writePauses, 1u);

    std::size_t at1039 = 99, at1041 = 99;
    eq.scheduleIn(1039 - eq.curTick(),
                  [&] { at1039 = b.pendingWrites(); });
    eq.scheduleIn(1041 - eq.curTick(),
                  [&] { at1041 = b.pendingWrites(); });
    eq.run();
    EXPECT_EQ(at1039, 1u);
    EXPECT_EQ(at1041, 0u);
}

TEST(ScmCacheBackendTest, MissFillsThenHitIsFast)
{
    EventQueue eq;
    MainMemory mem;
    MemBackendConfig cfg;
    cfg.kind = MemBackendKind::ScmCache;
    ScmCacheBackend b(cfg, eq, mem, 1);

    // Cold miss: SCM read latency, and the line fills the DRAM cache.
    Tick missTick = 0;
    b.readLine(0x40000, [&](const LineData &) { missTick = eq.curTick(); });
    eq.run();
    EXPECT_EQ(missTick, Tick(cfg.scmReadCycles));
    EXPECT_EQ(b.stats().dcacheMisses, 1u);
    EXPECT_EQ(b.stats().scmReads, 1u);
    EXPECT_EQ(b.residentLines(), 1u);

    // Re-read: DRAM-cache hit at the (much lower) DRAM latency.
    const Tick start = eq.curTick();
    Tick hitTick = 0;
    b.readLine(0x40000, [&](const LineData &) { hitTick = eq.curTick(); });
    eq.run();
    EXPECT_EQ(hitTick - start, Tick(cfg.scmHitCycles));
    EXPECT_EQ(b.stats().dcacheHits, 1u);
}

TEST(ScmCacheBackendTest, BackToBackMissesSerializeOnScmChannel)
{
    EventQueue eq;
    MainMemory mem;
    MemBackendConfig cfg;
    cfg.kind = MemBackendKind::ScmCache;
    ScmCacheBackend b(cfg, eq, mem, 1);

    // Two independent misses in the same cycle: latency pipelines,
    // but the second must wait out the first's SCM channel occupancy.
    Tick done0 = 0, done1 = 0;
    b.readLine(0x40000, [&](const LineData &) { done0 = eq.curTick(); });
    b.readLine(0x80000, [&](const LineData &) { done1 = eq.curTick(); });
    eq.run();
    EXPECT_EQ(done0, Tick(cfg.scmReadCycles));
    EXPECT_EQ(done1, Tick(cfg.scmOccupancy + cfg.scmReadCycles));
    EXPECT_EQ(b.stats().readStallTicks, Counter(cfg.scmOccupancy));
}

TEST(ScmCacheBackendTest, DirtyVictimSpillsToScm)
{
    EventQueue eq;
    MainMemory mem;
    MemBackendConfig cfg;
    cfg.kind = MemBackendKind::ScmCache;
    cfg.scmCacheLines = 8;
    cfg.scmCacheAssoc = 8; // one set: the 9th line must evict
    ScmCacheBackend b(cfg, eq, mem, 1);

    // LLC writebacks are write-allocate: they dirty the DRAM cache
    // without touching SCM.
    for (PhysAddr i = 0; i < 8; ++i)
        b.writeLine(i * 1024, fullLineMask, LineData{});
    EXPECT_EQ(b.residentLines(), 8u);
    EXPECT_EQ(b.dirtyLines(), 8u);
    EXPECT_EQ(b.stats().scmWrites, 0u);

    // The 9th allocation evicts the LRU dirty line: one SCM spill,
    // holding the SCM channel for the full write time.
    b.writeLine(8 * 1024, fullLineMask, LineData{});
    EXPECT_EQ(b.stats().scmWrites, 1u);
    EXPECT_EQ(b.residentLines(), 8u);
    EXPECT_EQ(b.dirtyLines(), 8u);

    // The spilled line is gone (a re-read misses), and the spill's
    // channel hold delays that SCM read.
    Tick doneTick = 0;
    b.readLine(0, [&](const LineData &) { doneTick = eq.curTick(); });
    eq.run();
    EXPECT_EQ(b.stats().dcacheMisses, 1u);
    EXPECT_EQ(doneTick, Tick(cfg.scmWriteCycles + cfg.scmReadCycles));
}

TEST(SnapshotConfigHashTest, CoversBackendKindAndEveryKnob)
{
    SystemConfig base = SystemConfig::microbenchmarkDefault();
    const std::uint64_t h0 = snapshotConfigHash(base);

    SystemConfig kind = base;
    kind.memBackend.kind = MemBackendKind::SttMram;
    EXPECT_NE(snapshotConfigHash(kind), h0);

    // Even a knob of an unselected backend folds into the hash: a
    // cached result is never served under a different memory system.
    SystemConfig knob = base;
    knob.memBackend.scmWriteCycles += 1;
    EXPECT_NE(snapshotConfigHash(knob), h0);

    SystemConfig dram = base;
    dram.memBackend.dramCycles += 1;
    EXPECT_NE(snapshotConfigHash(dram), h0);
}

/** Collects the responses the LLC sends back to the requester. */
struct RespSink : MemObject
{
    std::vector<Msg> got;
    void receive(const Msg &m) override { got.push_back(m); }
};

/**
 * Regression for the accept/serve invariant: a line with a bank
 * access in flight (accepted, serve pending) must never be chosen as
 * an eviction victim by a concurrent miss in the same set.  The old
 * code defensively re-looked-up the line at serve time and refetched
 * it when gone; now allocLine() skips in-service lines and serve
 * asserts presence, so the refetch (a 4th fill here) cannot happen.
 */
TEST(LlcBankInvariantTest, InServiceLineIsNotAnEvictionVictim)
{
    EventQueue eq;
    MainMemory mem;
    Mesh mesh(eq, MeshParams{});
    Fabric fabric(mesh);
    auto backend = makeMemBackend(MemBackendConfig{}, eq, mem,
                                  gpuClockPeriod);

    // One set, two ways: the third distinct line must evict.
    LlcBank::Params p;
    p.assoc = 2;
    p.bankBytes = lineBytes * p.assoc;
    LlcBank bank(eq, fabric, *backend, NodeId(0), p);

    RespSink sink;
    fabric.registerObject(NodeId(0), Unit::L1, &sink);
    fabric.registerCore(0, NodeId(0));

    const PhysAddr A = 0x10000, B = 0x10400, C = 0x10800;
    mem.writeWord(A, 0xa0);
    mem.writeWord(B, 0xb0);
    mem.writeWord(C, 0xc0);

    auto read = [](PhysAddr pa) {
        Msg m;
        m.type = MsgType::ReadReq;
        m.requester = 0;
        m.requesterUnit = Unit::L1;
        m.linePA = pa;
        m.mask = fullLineMask;
        return m;
    };

    bank.receive(read(A));
    eq.run();
    bank.receive(read(B));
    eq.run();
    ASSERT_EQ(bank.stats().fills, 2u);
    // A was served before B: it is the set's LRU line.

    // Accept a hit on A (serve in flight), then a miss on C in the
    // same tick.  C's allocation must evict B, not the in-service A.
    bank.receive(read(A));
    bank.receive(read(C));
    eq.run();

    EXPECT_EQ(bank.stats().fills, 3u)
        << "the in-service line was evicted and refetched";
    EXPECT_EQ(bank.stats().reads, 4u);
    ASSERT_EQ(sink.got.size(), 4u);
    for (const Msg &m : sink.got)
        EXPECT_EQ(m.type, MsgType::ReadResp);
    EXPECT_EQ(sink.got[2].linePA, A);
    EXPECT_EQ(sink.got[2].data.w[0], 0xa0u);
    EXPECT_EQ(sink.got[3].linePA, C);
    EXPECT_EQ(sink.got[3].data.w[0], 0xc0u);
}

/**
 * A one-set, 4-way LLC bank at node 0 whose replies go to core 0's
 * L1 at node 0.  line(k) is the k-th line homed at node 0, and word 0
 * of it holds 0xa0 + k in memory, so a fifth distinct line evicts.
 */
class LlcVictimTest : public ::testing::Test
{
  protected:
    LlcVictimTest()
    {
        fabric.registerObject(NodeId(0), Unit::L1, &sink);
        fabric.registerCore(0, NodeId(0));
        for (unsigned k = 0; k < 6; ++k)
            mem.writeWord(line(k), 0xa0 + k);
    }

    static LlcBank::Params
    params()
    {
        LlcBank::Params p;
        p.assoc = 4;
        p.bankBytes = lineBytes * p.assoc;
        return p;
    }

    static PhysAddr line(unsigned k) { return 0x10000 + k * 0x400; }

    static PhysAddr
    word(PhysAddr line_pa, unsigned w)
    {
        return line_pa + PhysAddr(w) * wordBytes;
    }

    /** A @p type for @p mask of @p pa from core 0's L1.  A writeback
     *  stores 0x11 * (w + 1) in word w. */
    static Msg
    request(MsgType type, PhysAddr pa, WordMask mask = fullLineMask)
    {
        Msg m;
        m.type = type;
        m.requester = 0;
        m.requesterUnit = Unit::L1;
        m.linePA = pa;
        m.mask = mask;
        for (unsigned w = 0; w < wordsPerLine; ++w)
            m.data.w[w] = 0x11 * (w + 1);
        return m;
    }

    /** Sends request(...) to the bank and runs the queue dry. */
    void
    send(MsgType type, PhysAddr pa, WordMask mask = fullLineMask)
    {
        bank.receive(request(type, pa, mask));
        eq.run();
    }

    void read(PhysAddr pa) { send(MsgType::ReadReq, pa); }

    /** Resident lines, in the bank's (set, way) order. */
    std::vector<PhysAddr>
    resident() const
    {
        std::vector<PhysAddr> lines;
        bank.forEachDirectoryWord(
            [&](PhysAddr pa, WordState, std::uint32_t, CoreId, bool,
                unsigned) {
                if (lineWord(pa) == 0)
                    lines.push_back(pa);
            });
        return lines;
    }

    EventQueue eq;
    MainMemory mem;
    Mesh mesh{eq, MeshParams{}};
    Fabric fabric{mesh};
    std::unique_ptr<MemBackend> backend =
        makeMemBackend(MemBackendConfig{}, eq, mem, gpuClockPeriod);
    LlcBank bank{eq, fabric, *backend, NodeId(0), params()};
    RespSink sink;
};

TEST_F(LlcVictimTest, EvictsLeastRecentlyUsedFirst)
{
    const PhysAddr A = line(0), B = line(1), C = line(2), D = line(3),
                   E = line(4), F = line(5);
    for (PhysAddr pa : {A, B, C, D})
        read(pa);
    read(A); // hit: B is now the LRU line
    read(E);
    EXPECT_EQ(resident(), (std::vector<PhysAddr>{A, E, C, D}));
    read(F);
    EXPECT_EQ(resident(), (std::vector<PhysAddr>{A, E, F, D}));
    EXPECT_EQ(bank.stats().fills, 6u);
    EXPECT_EQ(bank.stats().memWrites, 0u);
}

TEST_F(LlcVictimTest, WritesADirtyVictimBackOnceWithEveryWord)
{
    const PhysAddr A = line(0);
    send(MsgType::WbReq, A, wordBit(3));
    // Memory moves behind the bank's back: the victim's writeback
    // must overwrite it with the bank's copy of every word.
    mem.writeWord(word(A, 5), 0xdead);
    for (unsigned k = 1; k <= 4; ++k)
        read(line(k)); // the fourth evicts A, the LRU line
    EXPECT_EQ(resident(),
              (std::vector<PhysAddr>{line(4), line(1), line(2), line(3)}));
    EXPECT_EQ(bank.stats().memWrites, 1u);
    EXPECT_EQ(mem.readWord(word(A, 0)), 0xa0u);
    EXPECT_EQ(mem.readWord(word(A, 3)), 0x44u);
    EXPECT_EQ(mem.readWord(word(A, 5)), 0u);

    read(line(5)); // evicts line(1), which is clean
    EXPECT_EQ(bank.stats().memWrites, 1u);
}

TEST_F(LlcVictimTest, PassesOverALineHoldingARegisteredWord)
{
    const PhysAddr A = line(0);
    send(MsgType::RegReq, A, wordBit(2)); // A: oldest, registered
    for (unsigned k = 1; k <= 3; ++k)
        read(line(k));
    read(line(4));
    EXPECT_EQ(resident(),
              (std::vector<PhysAddr>{A, line(4), line(2), line(3)}))
        << "B, the next-oldest line, is the victim";
    EXPECT_EQ(bank.ownerOf(word(A, 2)), 0u);
}

TEST_F(LlcVictimTest, FlushWritesOnlyValidWordsOfDirtyLines)
{
    const PhysAddr A = line(0), B = line(1);
    send(MsgType::WbReq, A, wordBit(0)); // A dirty, word 0 = 0x11
    send(MsgType::RegReq, A, wordBit(1)); // word 1 held by core 0
    read(B);                              // B clean
    mem.writeWord(word(A, 1), 0x77);
    mem.writeWord(word(A, 2), 0x88);
    mem.writeWord(word(B, 0), 0x99);

    bank.flushDirtyToMemory();
    EXPECT_EQ(mem.readWord(word(A, 0)), 0x11u);
    EXPECT_EQ(mem.readWord(word(A, 1)), 0x77u) << "registered word";
    EXPECT_EQ(mem.readWord(word(A, 2)), 0u) << "valid word of a dirty line";
    EXPECT_EQ(mem.readWord(word(B, 0)), 0x99u) << "clean line";
    EXPECT_EQ(bank.stats().memWrites, 0u);
}

TEST_F(LlcVictimTest, PendingFillLinesCountsAFillInFlight)
{
    EXPECT_EQ(bank.pendingFillLines(), 0u);
    bank.receive(request(MsgType::ReadReq, line(0)));
    EXPECT_EQ(bank.pendingFillLines(), 1u);
    eq.run();
    EXPECT_EQ(bank.pendingFillLines(), 0u);
    EXPECT_EQ(bank.stats().fills, 1u);
}

} // namespace
} // namespace stashsim
