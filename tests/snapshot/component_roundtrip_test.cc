/**
 * @file
 * Per-component snapshot round trips, each section exercised in
 * isolation, plus the whole-System double-snapshot identity: a
 * restored System must serialize back to exactly the bytes it was
 * restored from (the fixed point the resume-parity suite builds on).
 * Hostile page-table, TLB, L1, LLC, stash, CU and NoC sections, each
 * breaking one invariant, must be rejected with a SnapshotError naming
 * their section.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "config/system_config.hh"
#include "core/stash.hh"
#include "core/stash_map.hh"
#include "driver/system.hh"
#include "gpu/compute_unit.hh"
#include "mem/backend/mem_backend.hh"
#include "mem/cache.hh"
#include "mem/fabric.hh"
#include "mem/llc.hh"
#include "mem/main_memory.hh"
#include "mem/page_table.hh"
#include "mem/scratchpad.hh"
#include "mem/tlb.hh"
#include "noc/mesh.hh"
#include "snapshot/snapshot.hh"
#include "workloads/workload_factory.hh"

namespace stashsim
{
namespace
{

/** One section's write → read round trip through a full image. */
template <class WriteFn, class ReadFn>
void
roundTrip(WriteFn write, ReadFn read)
{
    SnapshotWriter w;
    w.beginSection("x");
    write(w);
    w.endSection();
    SnapshotReader r(w.serialize());
    r.openSection("x");
    read(r);
    r.closeSection();
}

TEST(ComponentRoundTripTest, MainMemory)
{
    MainMemory a;
    a.writeWord(0x1000, 0x11111111);
    a.writeWord(0x1044, 0x22222222);
    a.writeWord(0xdead00, 0x33333333);

    MainMemory b;
    roundTrip([&](SnapshotWriter &w) { a.snapshot(w); },
              [&](SnapshotReader &r) { b.restore(r); });
    EXPECT_EQ(b.readWord(0x1000), 0x11111111u);
    EXPECT_EQ(b.readWord(0x1044), 0x22222222u);
    EXPECT_EQ(b.readWord(0xdead00), 0x33333333u);
    EXPECT_EQ(b.linesTouched(), a.linesTouched());
}

TEST(ComponentRoundTripTest, PageTable)
{
    PageTable a;
    const PhysAddr p0 = a.translate(0x10000);
    const PhysAddr p1 = a.translate(0x20000);

    PageTable b;
    roundTrip([&](SnapshotWriter &w) { a.snapshot(w); },
              [&](SnapshotReader &r) { b.restore(r); });
    EXPECT_EQ(b.translate(0x10000), p0);
    EXPECT_EQ(b.translate(0x20000), p1);
    EXPECT_EQ(b.numPages(), 2u);
    // Reverse map must be rebuilt too.
    Addr va = 0;
    EXPECT_TRUE(b.reverse(p0, &va));
    EXPECT_EQ(va, 0x10000u);
}

TEST(ComponentRoundTripTest, TlbKeepsCountersAndReplacementOrder)
{
    PageTable pt;
    Tlb a(pt, 2);
    a.translate(0x1000); // miss
    a.translate(0x2000); // miss
    a.translate(0x1000); // hit; 0x1000 is now MRU
    a.translate(0x3000); // miss, evicts LRU 0x2000

    Tlb b(pt, 2); // shares the page table: same translations
    roundTrip([&](SnapshotWriter &w) { a.snapshot(w); },
              [&](SnapshotReader &r) { b.restore(r); });
    EXPECT_EQ(b.accesses(), a.accesses());
    EXPECT_EQ(b.misses(), a.misses());
    EXPECT_EQ(b.size(), a.size());

    // Replacement order survived: touching a new page must evict
    // 0x1000 (the restored LRU), keeping 0x3000 resident.
    const std::uint64_t missesBefore = b.misses();
    b.translate(0x4000);
    EXPECT_EQ(b.misses(), missesBefore + 1);
    b.translate(0x3000);
    EXPECT_EQ(b.misses(), missesBefore + 1) << "0x3000 was evicted";
}

/** A unit that accepts and drops every message. */
struct NullUnit : MemObject
{
    void receive(const Msg &) override {}
};

/** Every line an LLC bank holds, in its (set, way) order. */
std::vector<PhysAddr>
residentLines(const LlcBank &bank)
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

/** One LLC bank's snapshot as a full serialized image. */
std::vector<std::uint8_t>
llcBytes(const LlcBank &bank)
{
    SnapshotWriter w;
    w.beginSection("x");
    bank.snapshot(w);
    w.endSection();
    return w.serialize();
}

TEST(ComponentRoundTripTest, LlcBankKeepsLinesAndReplacementOrder)
{
    EventQueue eq;
    MainMemory mem;
    Mesh mesh(eq, MeshParams{});
    Fabric fabric(mesh);
    NullUnit l1;
    fabric.registerObject(NodeId(0), Unit::L1, &l1);
    fabric.registerCore(0, NodeId(0));
    auto backendA =
        makeMemBackend(MemBackendConfig{}, eq, mem, gpuClockPeriod);
    auto backendB =
        makeMemBackend(MemBackendConfig{}, eq, mem, gpuClockPeriod);

    // Two sets of two ways at node 0: node-0 lines alternate between
    // the sets every 1 KB.
    LlcBank::Params p;
    p.assoc = 2;
    p.bankBytes = 2 * p.assoc * lineBytes;
    LlcBank a(eq, fabric, *backendA, NodeId(0), p);
    auto send = [&](LlcBank &bank, MsgType type, PhysAddr pa) {
        Msg m;
        m.type = type;
        m.requester = 0;
        m.requesterUnit = Unit::L1;
        m.linePA = pa;
        m.mask = fullLineMask;
        bank.receive(m);
        eq.run();
    };
    const PhysAddr l0 = 0x10000, l1a = 0x10800, l2 = 0x11000,
                   l3 = 0x11800; // set 0
    const PhysAddr m0 = 0x10400, m1 = 0x10c00, m2 = 0x11400,
                   m3 = 0x11c00; // set 1

    send(a, MsgType::ReadReq, l0);
    send(a, MsgType::ReadReq, l1a);
    send(a, MsgType::ReadReq, m0);
    send(a, MsgType::ReadReq, m1);
    send(a, MsgType::ReadReq, l0);  // hit: l1a is set 0's LRU line
    send(a, MsgType::ReadReq, l2);  // evicts l1a from way 1
    send(a, MsgType::WbReq, l2);    // l2 dirty
    send(a, MsgType::ReadReq, l0);  // hit: l2 (way 1) is LRU
    send(a, MsgType::ReadReq, m2);  // evicts m0 from way 0
    send(a, MsgType::ReadReq, m1);  // hit: m2 (way 0) is LRU
    ASSERT_EQ(a.stats().fills, 6u);
    ASSERT_EQ(residentLines(a), (std::vector<PhysAddr>{l0, l2, m2, m1}));

    LlcBank b(eq, fabric, *backendB, NodeId(0), p);
    roundTrip([&](SnapshotWriter &w) { a.snapshot(w); },
              [&](SnapshotReader &r) { b.restore(r); });
    EXPECT_EQ(llcBytes(b), llcBytes(a));

    // The next miss in each set evicts the same (LRU) victim in both
    // banks, and only the dirty one is written back.
    for (LlcBank *bank : {&a, &b}) {
        send(*bank, MsgType::ReadReq, l3);
        send(*bank, MsgType::ReadReq, m3);
        EXPECT_EQ(residentLines(*bank),
                  (std::vector<PhysAddr>{l0, l3, m3, m1}));
        EXPECT_EQ(bank->stats().memWrites, 1u);
    }
    EXPECT_EQ(llcBytes(b), llcBytes(a));
}

TEST(ComponentRoundTripTest, Scratchpad)
{
    Scratchpad a(1024);
    a.write(0, 0xaaaa5555);
    a.write(1020, 0x5555aaaa);

    Scratchpad b(1024);
    roundTrip([&](SnapshotWriter &w) { a.snapshot(w); },
              [&](SnapshotReader &r) { b.restore(r); });
    EXPECT_EQ(b.read(0), 0xaaaa5555u);
    EXPECT_EQ(b.read(1020), 0x5555aaaau);
    EXPECT_EQ(b.stats().writes, a.stats().writes);

    // Geometry mismatch is a structured error, not silent corruption.
    Scratchpad small(512);
    SnapshotWriter w;
    w.beginSection("x");
    a.snapshot(w);
    w.endSection();
    SnapshotReader r(w.serialize());
    r.openSection("x");
    EXPECT_THROW(small.restore(r), SnapshotError);
}

TEST(ComponentRoundTripTest, StashMap)
{
    StashMap a(8);
    TileSpec tile;
    tile.globalBase = 0x40000;
    tile.fieldSize = 4;
    tile.objectSize = 64;
    tile.rowSize = 128;
    tile.strideSize = 0;
    tile.numStrides = 1;

    const MapIndex i0 = a.advanceTail();
    StashMapEntry &e = a.entry(i0);
    e.valid = true;
    e.pinned = true;
    e.stashBase = 256;
    e.tile = tile;
    e.dirtyData = 5;
    a.advanceTail();

    StashMap b(8);
    roundTrip([&](SnapshotWriter &w) { a.snapshot(w); },
              [&](SnapshotReader &r) { b.restore(r, 16 * 1024, 64); });
    EXPECT_EQ(b.tailIndex(), a.tailIndex());
    EXPECT_EQ(b.numValid(), 1u);
    const StashMapEntry &f = b.entry(i0);
    EXPECT_TRUE(f.valid);
    EXPECT_TRUE(f.pinned);
    EXPECT_EQ(f.stashBase, 256u);
    EXPECT_EQ(f.dirtyData, 5u);
    EXPECT_TRUE(f.tile == tile);

    StashMap wrong(4);
    SnapshotWriter w;
    w.beginSection("x");
    a.snapshot(w);
    w.endSection();
    SnapshotReader r(w.serialize());
    r.openSection("x");
    EXPECT_THROW(wrong.restore(r, 16 * 1024, 64), SnapshotError);
}

/**
 * Writes one section named @p name and restores it.  Returns the
 * section a SnapshotError named, or "" when the restore accepted it;
 * the error's reason lands in @p reason when given.
 */
template <class WriteFn, class ReadFn>
std::string
restoreError(const std::string &name, WriteFn write, ReadFn read,
             std::string *reason = nullptr)
{
    SnapshotWriter w;
    w.beginSection(name);
    write(w);
    w.endSection();
    SnapshotReader r(w.serialize());
    r.openSection(name);
    try {
        read(r);
        r.closeSection();
    } catch (const SnapshotError &e) {
        if (reason)
            *reason = e.reason();
        return e.section();
    }
    return "";
}

/**
 * A `pagetable` section over two pages, each mapped to the physical
 * page translate() would assign it; each test breaks one field and
 * checks the reason names the broken rule, since a vpage stored twice
 * also stores its ppage twice.
 */
class PageTableRestoreTest : public ::testing::Test
{
  protected:
    using Pages = std::vector<std::pair<Addr, PhysAddr>>;

    std::string
    restore(const Pages &pages)
    {
        PageTable pt;
        reason.clear();
        return restoreError(
            "pagetable",
            [&](SnapshotWriter &w) {
                w.u64(pages.size());
                for (const auto &[vpage, ppage] : pages) {
                    w.u64(vpage);
                    w.u64(ppage);
                }
            },
            [&](SnapshotReader &r) { pt.restore(r); }, &reason);
    }

    std::string reason;
    static constexpr Addr v1 = 0x10000, v2 = 0x20000;
    const Pages good{{v1, PageTable::physPageOf(v1)},
                     {v2, PageTable::physPageOf(v2)}};
};

TEST_F(PageTableRestoreTest, RejectsUnalignedVirtualPages)
{
    EXPECT_EQ(restore(good), "");
    EXPECT_EQ(restore({{v1 + 8, PageTable::physPageOf(v1 + 8)}}),
              "pagetable");
    EXPECT_EQ(reason, "page table virtual page not page-aligned");
}

TEST_F(PageTableRestoreTest, RejectsPhysicalPagesOffTheirSlot)
{
    const std::string off =
        "page table physical page is not the virtual page's slot";
    EXPECT_EQ(restore({{v1, PageTable::physPageOf(v2)}}), "pagetable");
    EXPECT_EQ(reason, off);
    EXPECT_EQ(restore({{v1, PageTable::physPageOf(v1) + 64}}),
              "pagetable");
    EXPECT_EQ(reason, off);
}

TEST_F(PageTableRestoreTest, RejectsAVirtualPageStoredTwice)
{
    EXPECT_EQ(restore({good[0], good[1], good[0]}), "pagetable");
    EXPECT_EQ(reason, "page table virtual page stored twice");
}

TEST_F(PageTableRestoreTest, RejectsAPhysicalPageStoredTwice)
{
    // Two pages whose hashed slots collide: a run that touched both
    // would stop with translate()'s collision fatal, so no checkpoint
    // can hold them both.
    const Addr a = 0x1fd2793000, b = 0x2d3ad77000;
    ASSERT_EQ(PageTable::physPageOf(a), PageTable::physPageOf(b));
    EXPECT_EQ(restore({{a, PageTable::physPageOf(a)}}), "");
    EXPECT_EQ(restore({{a, PageTable::physPageOf(a)},
                       {b, PageTable::physPageOf(b)}}),
              "pagetable");
    EXPECT_EQ(reason, "page table physical page stored twice");
}

/** A TLB section over two mapped pages; each test breaks one field. */
class TlbRestoreTest : public ::testing::Test
{
  protected:
    using Entries = std::vector<std::pair<Addr, PhysAddr>>;

    std::string
    restore(std::uint64_t accesses, std::uint64_t misses,
            const Entries &entries)
    {
        Tlb tlb(pt, 4);
        return restoreError(
            "cu0.tlb",
            [&](SnapshotWriter &w) {
                w.u64(accesses);
                w.u64(misses);
                w.u32(std::uint32_t(entries.size()));
                for (const auto &[vpage, ppage] : entries) {
                    w.u64(vpage);
                    w.u64(ppage);
                }
            },
            [&](SnapshotReader &r) { tlb.restore(r); });
    }

    PageTable pt;
    const Addr v1 = 0x10000, v2 = 0x20000;
    const PhysAddr p1 = pt.translate(v1), p2 = pt.translate(v2);
    const Entries good{{v1, p1}, {v2, p2}};
};

TEST_F(TlbRestoreTest, RejectsUnalignedPages)
{
    EXPECT_EQ(restore(5, 2, good), "");
    EXPECT_EQ(restore(5, 2, {{v1 + 4, p1}, {v2, p2}}), "cu0.tlb");
    EXPECT_EQ(restore(5, 2, {{v1, p1 + 4}, {v2, p2}}), "cu0.tlb");
}

TEST_F(TlbRestoreTest, RejectsDuplicateVpages)
{
    EXPECT_EQ(restore(5, 2, {{v1, p1}, {v1, p1}}), "cu0.tlb");
}

TEST_F(TlbRestoreTest, RejectsMoreMissesThanAccesses)
{
    EXPECT_EQ(restore(2, 2, good), "");
    EXPECT_EQ(restore(1, 2, good), "cu0.tlb");
}

TEST_F(TlbRestoreTest, RejectsEntriesThePageTableDoesNotHold)
{
    // Another page's frame, and a page the table never mapped.
    EXPECT_EQ(restore(5, 2, {{v1, p1 + 7 * pageBytes}}), "cu0.tlb");
    EXPECT_EQ(restore(5, 2, {{v1, p1}, {0x30000, p2}}), "cu0.tlb");
}

/**
 * An L1 section for a 1 KB, 2-way cache (8 sets): line i lives in
 * set i / 2.  Each test breaks one field of a good section.
 */
class L1RestoreTest : public ::testing::Test
{
  protected:
    struct Rec
    {
        std::uint32_t index;
        PhysAddr pa;
        std::uint64_t lastUse;
    };

    std::string
    restore(std::uint64_t use_clock, const std::vector<Rec> &recs)
    {
        L1Cache::Params p;
        p.bytes = 1024;
        p.assoc = 2;
        L1Cache l1(eq, fabric, tlb, 0, 0, p);
        return restoreError(
            "cu0.l1",
            [&](SnapshotWriter &w) {
                w.u32(8);
                w.u32(2);
                w.u64(use_clock);
                writeStats(w, CacheStats{});
                w.u32(std::uint32_t(recs.size()));
                for (const Rec &rec : recs) {
                    w.u32(rec.index);
                    w.u64(rec.pa);
                    for (unsigned j = 0; j < wordsPerLine; ++j)
                        w.u8(std::uint8_t(WordState::Valid));
                    for (unsigned j = 0; j < wordsPerLine; ++j)
                        w.u32(j);
                    w.u64(rec.lastUse);
                }
            },
            [&](SnapshotReader &r) { l1.restore(r); });
    }

    EventQueue eq;
    Mesh mesh{eq, MeshParams{}};
    Fabric fabric{mesh};
    PageTable pt;
    Tlb tlb{pt, 64};
    /** A line in set 0; base + 64 * s is in set s (mod 8). */
    static constexpr PhysAddr base = PhysAddr{4} << 30;
    /** Two lines in set 0 and one in set 1. */
    const std::vector<Rec> good{
        {0, base, 1}, {1, base + 512, 2}, {2, base + 64, 3}};
};

TEST_F(L1RestoreTest, RejectsUnalignedLines)
{
    EXPECT_EQ(restore(3, good), "");
    EXPECT_EQ(restore(3, {{0, base + 4, 1}}), "cu0.l1");
}

TEST_F(L1RestoreTest, RejectsLinesOutsideTheirSet)
{
    // Set 1's line moved up one line, to set 2.
    EXPECT_EQ(restore(3, {{0, base, 1}, {2, base + 128, 3}}), "cu0.l1");
}

TEST_F(L1RestoreTest, RejectsALineStoredTwiceInItsSet)
{
    EXPECT_EQ(restore(3, {{0, base, 1}, {1, base, 2}}), "cu0.l1");
}

TEST_F(L1RestoreTest, RejectsUseAfterTheUseClock)
{
    EXPECT_EQ(restore(2, good), "cu0.l1");
}

/**
 * An `llc0` section for a 1 KB, 2-way bank at node 0 (8 sets): a
 * line homed at node 0 lies in set (pa / 1 KB) % 8, and index i
 * names set i / 2, way i % 2.  Core 0 has an L1 at node 0 and no
 * stash; core 1 has a stash (64 map entries) at node 1.  Each test
 * breaks one field of a good section.
 */
class LlcRestoreTest : public ::testing::Test
{
  protected:
    struct Rec
    {
        std::uint32_t index;
        PhysAddr pa;
        std::uint64_t lastUse;
        CoreId owner = invalidCore; //!< word 0's registrant, if any
        bool ownerIsStash = false;
        std::uint8_t mapIdx = 0; //!< its stash-map index
    };

    LlcRestoreTest()
    {
        fabric.registerObject(NodeId(0), Unit::L1, &l1);
        fabric.registerCore(0, NodeId(0));
        fabric.registerObject(NodeId(1), Unit::Stash, &stash);
        fabric.registerCore(1, NodeId(1));
    }

    std::string
    restore(std::uint64_t use_clock, const std::vector<Rec> &recs,
            std::uint32_t saved_sets = 8, std::uint32_t saved_assoc = 2)
    {
        LlcBank::Params p;
        p.bankBytes = 1024;
        p.assoc = 2;
        LlcBank bank(eq, fabric, *backend, NodeId(0), p);
        return restoreError(
            "llc0",
            [&](SnapshotWriter &w) {
                w.u32(saved_sets);
                w.u32(saved_assoc);
                w.u64(use_clock);
                writeStats(w, LlcStats{});
                w.u32(std::uint32_t(recs.size()));
                for (const Rec &rec : recs) {
                    w.u32(rec.index);
                    w.u64(rec.pa);
                    w.b(false);
                    w.u64(rec.lastUse);
                    for (unsigned j = 0; j < wordsPerLine; ++j) {
                        const bool reg =
                            j == 0 && rec.owner != invalidCore;
                        w.u8(std::uint8_t(reg ? WordState::Registered
                                              : WordState::Valid));
                        w.u32(j);
                        w.u32(reg ? rec.owner : invalidCore);
                        w.b(reg && rec.ownerIsStash);
                        w.u8(reg ? rec.mapIdx : 0);
                    }
                }
            },
            [&](SnapshotReader &r) { bank.restore(r); });
    }

    EventQueue eq;
    MainMemory mem;
    Mesh mesh{eq, MeshParams{}};
    Fabric fabric{mesh};
    NullUnit l1;
    NullUnit stash;
    std::unique_ptr<MemBackend> backend =
        makeMemBackend(MemBackendConfig{}, eq, mem, gpuClockPeriod);
    /** A node-0 line in set 0; base + 1 KB * s is in set s (mod 8). */
    static constexpr PhysAddr base = PhysAddr{4} << 30;
    /** Two lines in set 0, the first registered to core 0's L1, and
     *  one in set 1. */
    const std::vector<Rec> good{
        {0, base, 1, 0}, {1, base + 8192, 2}, {2, base + 1024, 3}};
};

TEST_F(LlcRestoreTest, RejectsASectionFromAnotherGeometry)
{
    EXPECT_EQ(restore(3, good), "");
    EXPECT_EQ(restore(3, good, 16, 2), "llc0");
    EXPECT_EQ(restore(3, good, 8, 4), "llc0");
}

TEST_F(LlcRestoreTest, RejectsUnalignedLines)
{
    EXPECT_EQ(restore(3, good), "");
    EXPECT_EQ(restore(3, {{0, base + 4, 1}}), "llc0");
}

TEST_F(LlcRestoreTest, RejectsLinesHomedAtAnotherBank)
{
    // One line up is node 1's, in the same set.
    EXPECT_EQ(restore(3, {{0, base + 64, 1}}), "llc0");
}

TEST_F(LlcRestoreTest, RejectsLinesOutsideTheirSet)
{
    // Set 1's line moved up 1 KB, to set 2.
    EXPECT_EQ(restore(3, {{0, base, 1}, {2, base + 2048, 3}}), "llc0");
}

TEST_F(LlcRestoreTest, RejectsALineStoredTwice)
{
    EXPECT_EQ(restore(3, {{0, base, 1}, {1, base, 2}}), "llc0");
}

TEST_F(LlcRestoreTest, RejectsWaysNotStoredFromWayZeroUp)
{
    // A set whose only line sits in way 1, and a set whose way 1
    // comes before its way 0.
    EXPECT_EQ(restore(3, {{1, base, 1}}), "llc0");
    EXPECT_EQ(restore(3, {{1, base + 8192, 2}, {0, base, 1}}), "llc0");
}

TEST_F(LlcRestoreTest, RejectsUseAfterTheUseClock)
{
    EXPECT_EQ(restore(2, good), "llc0");
}

TEST_F(LlcRestoreTest, RejectsRegistrationsTheFabricCannotReach)
{
    // Core 99 was never registered; core 0 has no stash.
    EXPECT_EQ(restore(3, {{0, base, 1, 99}}), "llc0");
    EXPECT_EQ(restore(3, {{0, base, 1, 0, true}}), "llc0");
}

TEST_F(LlcRestoreTest, RejectsAStashMapIndexPastTheMapSize)
{
    EXPECT_EQ(restore(3, {{0, base, 1, 1, true, 63}}), "");
    EXPECT_EQ(restore(3, {{0, base, 1, 1, true, 64}}), "llc0");
}

/**
 * A `cu0.core` section for a CU with the default 16 KB of local
 * space.  Between kernels every block has freed its space, so the
 * free list is the one interval [0, 16 KB) and the next-fit pointer
 * lies inside it.  Each test breaks one of them.
 */
class ComputeUnitRestoreTest : public ::testing::Test
{
  protected:
    using FreeList = std::vector<std::pair<LocalAddr, std::uint32_t>>;

    std::string
    restore(LocalAddr alloc_ptr, const FreeList &free_list)
    {
        ComputeUnit cu(eq, cfg, 0, &l1, nullptr, nullptr, nullptr);
        return restoreError(
            "cu0.core",
            [&](SnapshotWriter &w) {
                writeStats(w, GpuStats{});
                w.u32(alloc_ptr);
                w.u32(std::uint32_t(free_list.size()));
                for (const auto &[b, bytes] : free_list) {
                    w.u32(b);
                    w.u32(bytes);
                }
            },
            [&](SnapshotReader &r) { cu.restore(r); });
    }

    EventQueue eq;
    SystemConfig cfg;
    Mesh mesh{eq, MeshParams{}};
    Fabric fabric{mesh};
    PageTable pt;
    Tlb tlb{pt, 64};
    L1Cache l1{eq, fabric, tlb, 0, NodeId(0), L1Cache::Params{}};
    const std::uint32_t local = cfg.localBytes;
};

TEST_F(ComputeUnitRestoreTest, RejectsAFreeListThatIsNotTheWholeLocalSpace)
{
    EXPECT_EQ(restore(0, {{0, local}}), "");
    // A block's space still taken, the space split in two, and free
    // space past the local memory.
    EXPECT_EQ(restore(0, {{1024, local - 1024}}), "cu0.core");
    EXPECT_EQ(restore(0, {{0, 1024}, {1024, local - 1024}}), "cu0.core");
    EXPECT_EQ(restore(0, {{0, 2 * local}}), "cu0.core");
}

TEST_F(ComputeUnitRestoreTest, RejectsAnAllocationPointerPastTheLocalSpace)
{
    EXPECT_EQ(restore(local - 64, {{0, local}}), "");
    EXPECT_EQ(restore(local, {{0, local}}), "cu0.core");
}

/** A `noc` section with one link reserved until @p busy, at tick 1000. */
std::string
restoreMeshReservedUntil(Tick busy)
{
    EventQueue eq;
    eq.schedule(1000, [] {});
    eq.run();
    Mesh mesh(eq, MeshParams{});
    return restoreError(
        "noc",
        [&](SnapshotWriter &w) {
            writeStats(w, NocStats{});
            w.u32(mesh.numNodes());
            const unsigned links =
                mesh.numNodes() * unsigned(Direction::NumDirections);
            for (unsigned i = 0; i < links; ++i)
                w.u64(i == 7 ? busy : 0);
        },
        [&](SnapshotReader &r) { mesh.restore(r); });
}

TEST(MeshRestoreTest, RejectsAReservationPastTheEngineTick)
{
    EXPECT_EQ(restoreMeshReservedUntil(1000), "");
    EXPECT_EQ(restoreMeshReservedUntil(1001), "noc");
}

/**
 * A stash section for a 1 KB stash (16 chunks, 8 map entries, 4
 * VP-map pages): entry 0 maps a 32-word AoS tile at stash byte 0 and
 * owns chunks 0-1, and the VP-map holds the tile's one page.  Each
 * test breaks one field of this good image.
 */
class StashRestoreTest : public ::testing::Test
{
  protected:
    struct ChunkRec
    {
        MapIndex mapIdx;
        MapIndex allocIdx;
    };

    struct VpRec
    {
        Addr vpage;
        PhysAddr ppage;
        MapIndex idx;
    };

    StashRestoreTest()
    {
        chunks.assign(16, ChunkRec{0, unmappedIndex});
        chunks[0].allocIdx = chunks[1].allocIdx = 0;
        entries.resize(8);
        StashMapEntry &e = entries[0];
        e.valid = true;
        e.tile.globalBase = gbase;
        e.tile.fieldSize = 4;
        e.tile.objectSize = 64;
        e.tile.rowSize = 32;
        vp = {{gbase, pt.translate(gbase), 0}};
    }

    std::string
    restore()
    {
        Stash::Params p;
        p.bytes = 1024;
        p.mapEntries = 8;
        p.vpEntries = 4;
        Stash stash(eq, fabric, pt, 0, 0, p);
        return restoreError(
            "cu0.stash",
            [&](SnapshotWriter &w) {
                writeStats(w, StashStats{});
                w.u32(256);
                for (unsigned i = 0; i < 256; ++i)
                    w.u32(i);
                for (unsigned i = 0; i < 256; ++i)
                    w.u8(std::uint8_t(WordState::Invalid));
                w.u32(std::uint32_t(chunks.size()));
                for (const ChunkRec &c : chunks) {
                    w.b(false);
                    w.b(false);
                    w.u8(c.mapIdx);
                    w.u8(c.allocIdx);
                }
                w.u32(std::uint32_t(entries.size()));
                w.u8(tail);
                for (const StashMapEntry &e : entries) {
                    w.b(e.valid);
                    w.b(e.pinned);
                    w.u32(e.stashBase);
                    w.u64(e.tile.globalBase);
                    w.u32(e.tile.fieldSize);
                    w.u32(e.tile.objectSize);
                    w.u32(e.tile.rowSize);
                    w.u32(e.tile.strideSize);
                    w.u32(e.tile.numStrides);
                    w.b(e.tile.isCoherent);
                    w.u32(e.dirtyData);
                    w.b(e.reuseBit);
                    w.u8(e.reuseIdx);
                }
                w.u64(7); // VP-map lookups
                w.u32(std::uint32_t(vp.size()));
                for (const VpRec &v : vp) {
                    w.u64(v.vpage);
                    w.u64(v.ppage);
                    w.u8(v.idx);
                }
            },
            [&](SnapshotReader &r) { stash.restore(r); });
    }

    static constexpr Addr gbase = 0x200000;
    EventQueue eq;
    Mesh mesh{eq, MeshParams{}};
    Fabric fabric{mesh};
    PageTable pt;
    std::vector<ChunkRec> chunks;
    std::uint8_t tail = 1;
    std::vector<StashMapEntry> entries;
    std::vector<VpRec> vp;
};

TEST_F(StashRestoreTest, RejectsTailPastCapacity)
{
    EXPECT_EQ(restore(), "");
    tail = 8;
    EXPECT_EQ(restore(), "cu0.stash");
}

TEST_F(StashRestoreTest, RejectsReuseIndexPastCapacity)
{
    entries[3].reuseIdx = 8;
    EXPECT_EQ(restore(), "cu0.stash");
}

TEST_F(StashRestoreTest, RejectsMalformedTiles)
{
    entries[0].tile.fieldSize = 0;
    EXPECT_EQ(restore(), "cu0.stash");
}

TEST_F(StashRestoreTest, RejectsTilesThatAreNotWordAligned)
{
    entries[0].tile.globalBase = gbase + 2;
    EXPECT_EQ(restore(), "cu0.stash");
}

TEST_F(StashRestoreTest, RejectsStashBasesThatAreNotChunkAligned)
{
    entries[0].stashBase = 32;
    EXPECT_EQ(restore(), "cu0.stash");
}

TEST_F(StashRestoreTest, RejectsMappingsPastTheStash)
{
    entries[0].stashBase = 1024 - 64; // 128 mapped bytes
    EXPECT_EQ(restore(), "cu0.stash");
    // 4 B x 2^30 objects: a 32-bit mappedBytes() wraps to 0.
    entries[0].stashBase = 0;
    entries[0].tile.rowSize = 1u << 30;
    EXPECT_EQ(restore(), "cu0.stash");
}

TEST_F(StashRestoreTest, RejectsChunkMapIndexPastCapacity)
{
    chunks[5].mapIdx = 8;
    EXPECT_EQ(restore(), "cu0.stash");
}

TEST_F(StashRestoreTest, RejectsChunkAllocatorPastCapacity)
{
    chunks[5].allocIdx = 8;
    EXPECT_EQ(restore(), "cu0.stash");
}

TEST_F(StashRestoreTest, RejectsVpMapPagesThatAreNotPageAligned)
{
    vp[0].ppage += 4;
    EXPECT_EQ(restore(), "cu0.stash");
    vp[0] = {gbase + 4, pt.translate(gbase), 0};
    EXPECT_EQ(restore(), "cu0.stash");
}

TEST_F(StashRestoreTest, RejectsVpMapEntriesNamingNoMapEntry)
{
    vp[0].idx = 8;
    EXPECT_EQ(restore(), "cu0.stash");
}

TEST_F(StashRestoreTest, RejectsDuplicateVpMapVpages)
{
    vp.push_back(vp[0]);
    EXPECT_EQ(restore(), "cu0.stash");
}

TEST_F(StashRestoreTest, RejectsDuplicateVpMapPpages)
{
    const Addr other = gbase + 0x10000;
    pt.translate(other);
    vp.push_back({other, vp[0].ppage, 0});
    EXPECT_EQ(restore(), "cu0.stash");
}

TEST_F(StashRestoreTest, RejectsVpMapPagesThePageTableDoesNotHold)
{
    // Another page's frame, and a page the table never mapped.
    vp[0].ppage += 7 * pageBytes;
    EXPECT_EQ(restore(), "cu0.stash");
    vp[0] = {gbase + 0x40000, pt.translate(gbase) + 0x40000, 0};
    EXPECT_EQ(restore(), "cu0.stash");
}

/**
 * The full-system fixed point: snapshot a run's end state, restore it
 * into a fresh System, snapshot again — every section must come back
 * byte-identical.  This covers each component's restore against its
 * own snapshot in one sweep (caches, LLC, stash, VP-map, NoC, ...).
 */
TEST(ComponentRoundTripTest, SystemSnapshotIsAFixedPoint)
{
    for (const MemOrg org :
         {MemOrg::Stash, MemOrg::Cache, MemOrg::ScratchGD}) {
        SystemConfig cfg = SystemConfig::microbenchmarkDefault();
        cfg.memOrg = org;

        workloads::WorkloadParams params;
        params.org = org;
        params.cpuCores = cfg.numCpuCores;
        params.scale = workloads::Scale::Smoke;
        Workload wl = workloads::WorkloadFactory::instance().make(
            "Reuse", params);

        System sys(cfg);
        const RunResult res = sys.run(std::move(wl));
        ASSERT_TRUE(res.validated) << memOrgName(org);

        SnapshotWriter a;
        a.configHash = snapshotConfigHash(cfg);
        sys.saveSnapshot(a);

        System sys2(cfg);
        SnapshotReader r(a.serialize());
        sys2.restoreSnapshot(r);
        SnapshotWriter b;
        b.configHash = snapshotConfigHash(cfg);
        sys2.saveSnapshot(b);
        EXPECT_EQ(a.serialize(), b.serialize()) << memOrgName(org);
    }
}

} // namespace
} // namespace stashsim
