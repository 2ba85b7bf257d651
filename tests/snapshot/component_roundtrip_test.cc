/**
 * @file
 * Round trips: what goes into a component comes back out of it
 * unchanged — words through main memory and a scratchpad, pages
 * through the page table, lines through an LLC bank in
 * replacement order, mappings through the stash map — and the RESULT
 * snapshot a System's run leaves is a fixed point of running it
 * again.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/stash_map.hh"
#include "driver/sweep.hh"
#include "mem/backend/mem_backend.hh"
#include "mem/coherence/msg.hh"
#include "mem/fabric.hh"
#include "mem/llc.hh"
#include "mem/main_memory.hh"
#include "mem/page_table.hh"
#include "mem/scratchpad.hh"
#include "noc/mesh.hh"
#include "workloads/workload_factory.hh"

namespace stashsim
{
namespace
{

namespace fs = std::filesystem;

TEST(ComponentRoundTripTest, MainMemory)
{
    MainMemory mem;
    mem.writeWord(0x1000, 0x11111111);
    mem.writeWord(0x1044, 0x22222222);
    mem.writeWord(0xdead00, 0x33333333);
    EXPECT_EQ(mem.readWord(0x1000), 0x11111111u);
    EXPECT_EQ(mem.readWord(0x1044), 0x22222222u);
    EXPECT_EQ(mem.readWord(0xdead00), 0x33333333u);
    EXPECT_EQ(mem.linesTouched(), 3u);

    // A masked line write lands exactly the masked words, and the
    // line read returns them next to the words already there.
    LineData d;
    for (unsigned w = 0; w < wordsPerLine; ++w)
        d.w[w] = 0xa0 + w;
    mem.writeLine(0x1040, wordBit(0) | wordBit(5), d);
    const LineData back = mem.readLine(0x1040);
    EXPECT_EQ(back.w[0], 0xa0u);
    EXPECT_EQ(back.w[1], 0x22222222u);
    EXPECT_EQ(back.w[5], 0xa5u);
    EXPECT_EQ(back.w[2], 0u);
    EXPECT_EQ(mem.linesTouched(), 3u);
}

TEST(ComponentRoundTripTest, PageTable)
{
    PageTable pt;
    const PhysAddr p0 = pt.translate(0x10000);
    const PhysAddr p1 = pt.translate(0x20000);
    EXPECT_EQ(pt.translate(0x10000 + 0x44), p0 + 0x44);
    EXPECT_EQ(pt.numPages(), 2u);

    // Forward, lookup and reverse agree on every mapped address.
    for (const auto &[va, pa] :
         {std::pair<Addr, PhysAddr>{0x10000, p0},
          std::pair<Addr, PhysAddr>{0x20000 + 0x7c, p1 + 0x7c}}) {
        PhysAddr looked = 0;
        EXPECT_TRUE(pt.lookup(va, &looked));
        EXPECT_EQ(looked, pa);
        Addr back = 0;
        EXPECT_TRUE(pt.reverse(pa, &back));
        EXPECT_EQ(back, va);
    }
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

TEST(ComponentRoundTripTest, LlcBankKeepsLinesAndReplacementOrder)
{
    EventQueue eq;
    MainMemory mem;
    Mesh mesh(eq, MeshParams{});
    Fabric fabric(mesh);
    NullUnit l1;
    fabric.registerObject(NodeId(0), Unit::L1, &l1);
    fabric.registerCore(0, NodeId(0));
    auto backend =
        makeMemBackend(MemBackendConfig{}, eq, mem, gpuClockPeriod);

    // Two sets of two ways at node 0: node-0 lines alternate between
    // the sets every 1 KB, and each set keeps its own LRU order.
    LlcBank::Params p;
    p.assoc = 2;
    p.bankBytes = 2 * p.assoc * lineBytes;
    LlcBank bank(eq, fabric, *backend, NodeId(0), p);
    auto send = [&](MsgType type, PhysAddr pa) {
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

    send(MsgType::ReadReq, l0);
    send(MsgType::ReadReq, l1a);
    send(MsgType::ReadReq, m0);
    send(MsgType::ReadReq, m1);
    send(MsgType::ReadReq, l0);  // hit: l1a is set 0's LRU line
    send(MsgType::ReadReq, l2);  // evicts l1a from way 1
    send(MsgType::WbReq, l2);    // l2 dirty
    send(MsgType::ReadReq, l0);  // hit: l2 (way 1) is LRU
    send(MsgType::ReadReq, m2);  // evicts m0 from way 0
    send(MsgType::ReadReq, m1);  // hit: m2 (way 0) is LRU
    EXPECT_EQ(bank.stats().fills, 6u);
    EXPECT_EQ(bank.stats().memWrites, 0u);
    EXPECT_EQ(residentLines(bank),
              (std::vector<PhysAddr>{l0, l2, m2, m1}));

    // The next miss in each set evicts that set's LRU victim, and
    // only the dirty one is written back.
    send(MsgType::ReadReq, l3);
    send(MsgType::ReadReq, m3);
    EXPECT_EQ(residentLines(bank),
              (std::vector<PhysAddr>{l0, l3, m3, m1}));
    EXPECT_EQ(bank.stats().fills, 8u);
    EXPECT_EQ(bank.stats().memWrites, 1u);
}

TEST(ComponentRoundTripTest, Scratchpad)
{
    Scratchpad sp(1024);
    sp.write(0, 0xaaaa5555);
    sp.write(1020, 0x5555aaaa);
    EXPECT_EQ(sp.read(0), 0xaaaa5555u);
    EXPECT_EQ(sp.read(1020), 0x5555aaaau);
    EXPECT_EQ(sp.read(4), 0u);
    EXPECT_EQ(sp.stats().writes, 2u);
    EXPECT_EQ(sp.stats().reads, 3u);

    // An address past the scratchpad's geometry is an error, never a
    // silent access to a neighbour's storage.
    EXPECT_THROW(sp.write(1024, 1), std::out_of_range);
    EXPECT_THROW(sp.read(1024), std::out_of_range);
}

TEST(ComponentRoundTripTest, StashMap)
{
    StashMap map(8);
    TileSpec tile;
    tile.globalBase = 0x40000;
    tile.fieldSize = 4;
    tile.objectSize = 64;
    tile.rowSize = 128;
    tile.strideSize = 0;
    tile.numStrides = 1;
    ASSERT_EQ(mappingError(256, tile, 16 * 1024, 64), nullptr);

    const MapIndex i0 = map.advanceTail();
    StashMapEntry &e = map.entry(i0);
    e.valid = true;
    e.pinned = true;
    e.stashBase = 256;
    e.tile = tile;
    e.dirtyData = 5;
    map.advanceTail();

    // The mapping comes back whole through the replication search.
    EXPECT_EQ(map.numValid(), 1u);
    EXPECT_EQ(map.tailIndex(), MapIndex(i0 + 2));
    const std::optional<MapIndex> found = map.findMatch(tile);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, i0);
    const StashMapEntry &f = map.entry(*found);
    EXPECT_TRUE(f.pinned);
    EXPECT_EQ(f.stashBase, 256u);
    EXPECT_EQ(f.dirtyData, 5u);
    EXPECT_TRUE(f.tile == tile);

    // An index past the map's capacity is an error.
    EXPECT_THROW(map.entry(MapIndex(map.capacity())), std::out_of_range);
}

std::vector<char>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/**
 * The RESULT snapshot of a System's run is a fixed point: serving it
 * leaves it untouched, and simulating the spec again from tick 0
 * writes back exactly the same bytes.
 */
TEST(ComponentRoundTripTest, SystemSnapshotIsAFixedPoint)
{
    const std::string dir =
        ::testing::TempDir() + "system_snapshot_fixed_point";
    fs::remove_all(dir);
    fs::create_directories(dir);

    std::atomic<int> builds{0};
    std::vector<RunSpec> specs;
    for (const MemOrg org :
         {MemOrg::Stash, MemOrg::Cache, MemOrg::ScratchGD}) {
        RunSpec s;
        s.workload = "Reuse";
        s.org = org;
        s.scale = workloads::Scale::Smoke;
        s.make = [&builds](const workloads::WorkloadParams &p) {
            builds.fetch_add(1, std::memory_order_relaxed);
            return workloads::WorkloadFactory::instance().make("Reuse",
                                                               p);
        };
        specs.push_back(std::move(s));
    }

    SweepOptions opts;
    opts.threads = 1;
    opts.stateDir = dir;
    const auto snapshots = [&dir]() {
        std::vector<std::pair<std::string, std::vector<char>>> out;
        for (const auto &de : fs::directory_iterator(dir)) {
            const std::string name = de.path().filename().string();
            if (name.rfind("RESULT_", 0) == 0)
                out.emplace_back(name, fileBytes(de.path().string()));
        }
        std::sort(out.begin(), out.end());
        return out;
    };

    for (const RunRecord &rec : SweepDriver(opts).run(specs))
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();
    const auto first = snapshots();
    ASSERT_EQ(first.size(), specs.size());
    ASSERT_EQ(builds.load(), 3);

    SweepDriver(opts).run(specs);
    EXPECT_EQ(builds.load(), 3) << "every result is served";
    EXPECT_EQ(snapshots(), first);

    for (const auto &[name, bytes] : first)
        fs::remove(dir + "/" + name);
    SweepDriver(opts).run(specs);
    EXPECT_EQ(builds.load(), 6) << "a cleared cache simulates again";
    EXPECT_EQ(snapshots(), first);
}

} // namespace
} // namespace stashsim
