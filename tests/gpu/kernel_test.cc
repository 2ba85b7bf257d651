/**
 * @file
 * Tests for the lane-address pool of a thread block: a memory op
 * whose lanes step by one constant signed 32-bit amount keeps only
 * its first address there, any other op all of its lanes, and
 * LaneAddrs reads either back exactly (DESIGN.md §9.7).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gpu/kernel.hh"
#include "workloads/workload_factory.hh"

namespace stashsim
{
namespace
{

struct LaneCase
{
    std::string name;
    std::vector<Addr> lanes;
    bool strided;
};

/** @p n lanes from @p first, @p step apart, modulo 2^64. */
std::vector<Addr>
run(Addr first, std::int64_t step, unsigned n)
{
    std::vector<Addr> v;
    for (unsigned i = 0; i < n; ++i)
        v.push_back(first + Addr(step) * i);
    return v;
}

std::vector<LaneCase>
laneCases()
{
    std::vector<LaneCase> cases;
    cases.push_back({"one lane", {0x4000'0010}, true});
    cases.push_back({"broadcast", run(0x4000'0040, 0, 32), true});
    cases.push_back({"step +4", run(0x4000'0000, 4, 32), true});
    cases.push_back({"step +64", run(0x4000'0000, 64, 32), true});
    cases.push_back({"step -8", run(0x4000'1000, -8, 32), true});
    cases.push_back({"step INT32_MAX", run(0x10, INT32_MAX, 4), true});
    cases.push_back({"step INT32_MIN",
                     run(Addr(1) << 40, INT32_MIN, 4), true});
    cases.push_back({"step one past INT32_MAX",
                     run(0x10, std::int64_t(INT32_MAX) + 1, 4), false});
    cases.push_back({"wraps past 2^64", run(~Addr(0) - 11, 4, 8), true});
    cases.push_back({"irregular gather",
                     {0x4000'0100, 0x4000'0040, 0x4000'0f00, 0x4000'0044,
                      0x4000'0000, 0x4000'0100},
                     false});
    cases.push_back({"constant but for the last lane",
                     {0x100, 0x104, 0x108, 0x10c, 0x200}, false});
    std::vector<Addr> local;
    for (unsigned l = 0; l < 32; ++l)
        local.push_back(0x800 + Addr(l / 16) * 0x400 + Addr(l % 16) * 4);
    cases.push_back({"32 local offsets, two tile rows", local, false});
    cases.push_back({"32 local offsets", run(0x800, 4, 32), true});
    return cases;
}

TEST(LaneAddrsTest, ReturnsEveryLaneListExactly)
{
    ThreadBlock tb;
    for (const LaneCase &c : laneCases()) {
        SCOPED_TRACE(c.name);
        const std::size_t before = tb.addrs.size();
        const WarpOp op = tb.memOp(OpKind::GlobalLd, c.lanes);
        EXPECT_EQ(op.strided, c.strided);
        EXPECT_EQ(tb.addrs.size() - before,
                  c.strided ? 1u : c.lanes.size());
        const LaneAddrs got = tb.lanes(op);
        ASSERT_EQ(got.size(), c.lanes.size());
        EXPECT_EQ(std::vector<Addr>(got.begin(), got.end()), c.lanes);
        for (unsigned l = 0; l < c.lanes.size(); ++l)
            EXPECT_EQ(got[l], c.lanes[l]) << "lane " << l;
    }
    // Every earlier op still reads back its own lanes once the pool
    // has grown past it.
    ThreadBlock again;
    std::vector<WarpOp> ops;
    for (const LaneCase &c : laneCases())
        ops.push_back(again.memOp(OpKind::StashSt, c.lanes, 2));
    const auto cases = laneCases();
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const LaneAddrs got = again.lanes(ops[i]);
        EXPECT_EQ(std::vector<Addr>(got.begin(), got.end()),
                  cases[i].lanes)
            << cases[i].name;
    }
}

TEST(LaneAddrsTest, StoreFactoriesKeepTheirFields)
{
    ThreadBlock tb;
    const auto lanes = run(0x4000'0000, -4, 16);
    const WarpOp v = tb.storeValueOp(OpKind::GlobalSt, lanes, 9, 1);
    const WarpOp a = tb.storeAccOp(OpKind::StashSt, lanes, 3);
    EXPECT_EQ(v.value, 9u);
    EXPECT_FALSE(v.storeAcc);
    EXPECT_EQ(v.mapSlot, 1);
    EXPECT_TRUE(a.storeAcc);
    EXPECT_EQ(a.mapSlot, 3);
    EXPECT_EQ(tb.addrs.size(), 2u);
    for (const WarpOp &op : {v, a}) {
        const LaneAddrs got = tb.lanes(op);
        EXPECT_EQ(std::vector<Addr>(got.begin(), got.end()), lanes);
    }
}

/**
 * Builds each Figure 6 app under each of its five organizations at
 * quick scale, the grid hostbench's `apps-15cu` runs, and bounds the
 * lane-pool entries per memory op.  With every lane in the pool the
 * grid held 20.9 per op; what stays explicit is mostly the Scratch
 * and ScratchG copy loops' ops, whose 32 lanes span two tile rows.
 */
TEST(LanePoolBudget, Figure6GridStaysWithinBudget)
{
    const auto &factory = workloads::WorkloadFactory::instance();
    std::uint64_t entries = 0, mem_ops = 0;
    for (const char *app :
         {"LUD", "SURF", "BP", "NW", "PF", "SGEMM", "STENCIL"}) {
        for (MemOrg org : {MemOrg::Scratch, MemOrg::ScratchG,
                           MemOrg::Cache, MemOrg::Stash,
                           MemOrg::StashG}) {
            workloads::WorkloadParams p;
            p.org = org;
            p.cpuCores = factory.defaultConfig(app).numCpuCores;
            p.scale = workloads::Scale::Quick;
            const Workload wl = factory.make(app, p);
            std::uint64_t e = 0, n = 0;
            for (const Phase &ph : wl.phases) {
                for (const ThreadBlock &tb : ph.kernel.blocks) {
                    e += tb.addrs.size();
                    for (const auto &w : tb.warps) {
                        for (const WarpOp &op : w)
                            n += op.lanes > 0;
                    }
                }
            }
            ASSERT_GT(n, 0u) << app;
            std::printf("%s/%s: %llu pool entries for %llu memory ops "
                        "(%.2f per op)\n",
                        app, memOrgName(org), (unsigned long long)e,
                        (unsigned long long)n, double(e) / double(n));
            entries += e;
            mem_ops += n;
        }
    }
    const double per_op = double(entries) / double(mem_ops);
    std::printf("Figure 6 grid: %llu pool entries for %llu memory ops "
                "(%.2f per op)\n",
                (unsigned long long)entries, (unsigned long long)mem_ops,
                per_op);
    EXPECT_LE(per_op, 4.0);
}

} // namespace
} // namespace stashsim
