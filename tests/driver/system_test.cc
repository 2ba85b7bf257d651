/**
 * @file
 * System-level tests: construction per configuration, phase
 * sequencing, CPU cores, measurement windows, and the energy model.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "driver/system.hh"
#include "workloads/workload_factory.hh"

namespace stashsim
{
namespace
{

constexpr Addr gbase = 0x400000;

TEST(SystemTest, BuildsEveryConfiguration)
{
    for (MemOrg org :
         {MemOrg::Scratch, MemOrg::ScratchG, MemOrg::ScratchGD,
          MemOrg::Cache, MemOrg::Stash, MemOrg::StashG}) {
        SystemConfig cfg = SystemConfig::microbenchmarkDefault();
        cfg.memOrg = org;
        System sys(cfg);
        EXPECT_EQ(sys.config().memOrg, org);
        EXPECT_EQ(sys.stashOf(0) != nullptr, usesStash(org));
        EXPECT_NE(sys.gpuL1Of(0), nullptr);
        EXPECT_NE(sys.cpuL1Of(0), nullptr);
    }
}

TEST(SystemTest, RejectsOversubscribedMesh)
{
    SystemConfig cfg = SystemConfig::microbenchmarkDefault();
    cfg.numGpuCus = 10;
    cfg.numCpuCores = 10;
    EXPECT_THROW(System sys(cfg), std::runtime_error);
}

TEST(SystemTest, RejectsLlcGeometryWithoutPowerOfTwoSets)
{
    SystemConfig cfg = SystemConfig::microbenchmarkDefault();
    cfg.llcAssoc = 3; // 256 KB / (3 x 64 B) = 1,365 sets
    try {
        System sys(cfg);
        FAIL() << "a 1,365-set LLC bank was accepted";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("llcBankBytes 262144"), std::string::npos);
        EXPECT_NE(msg.find("llcAssoc 3"), std::string::npos);
        EXPECT_NE(msg.find("1365 sets"), std::string::npos);
    }
}

TEST(SystemTest, RunsAOneSetLlc)
{
    // 4,096 ways of 64 B fill a 256 KB bank: one set per bank.
    SystemConfig cfg = SystemConfig::microbenchmarkDefault();
    cfg.llcAssoc = 4096;
    workloads::WorkloadParams params;
    params.org = cfg.memOrg;
    params.cpuCores = cfg.numCpuCores;
    params.scale = workloads::Scale::Smoke;
    System sys(cfg);
    const RunResult res = sys.run(
        workloads::WorkloadFactory::instance().make("Reuse", params));
    EXPECT_TRUE(res.validated);
}

TEST(SystemTest, TableTwoPresetsMatchPaper)
{
    const SystemConfig mb = SystemConfig::microbenchmarkDefault();
    EXPECT_EQ(mb.numGpuCus, 1u);
    EXPECT_EQ(mb.numCpuCores, 15u);
    EXPECT_EQ(mb.localBytes, 16u * 1024);
    EXPECT_EQ(mb.l1Bytes, 32u * 1024);
    EXPECT_EQ(mb.numNodes() * mb.llcBankBytes, 4u * 1024 * 1024);
    EXPECT_EQ(mb.stashMapEntries, 64u);
    EXPECT_EQ(mb.vpMapEntries, 64u);
    EXPECT_EQ(mb.stashTranslationCycles, 10u);

    const SystemConfig app = SystemConfig::applicationDefault();
    EXPECT_EQ(app.numGpuCus, 15u);
    EXPECT_EQ(app.numCpuCores, 1u);
}

TEST(SystemTest, CpuPhaseRunsAndChecksValues)
{
    SystemConfig cfg = SystemConfig::microbenchmarkDefault();
    cfg.memOrg = MemOrg::Cache;
    System sys(cfg);

    Workload wl;
    wl.name = "cpu_only";
    wl.init = [](FunctionalMem &fm) { fm.writeWord(gbase, 17); };
    std::vector<std::vector<CpuOp>> work(2);
    work[0].push_back(CpuOp{gbase, false, 17, true});   // correct
    work[1].push_back(CpuOp{gbase + 4, false, 99, true}); // wrong
    wl.phases.push_back(Phase::cpu(std::move(work)));

    RunResult r = sys.run(std::move(wl));
    EXPECT_FALSE(r.validated);
    ASSERT_EQ(r.errors.size(), 1u);
    EXPECT_NE(r.errors[0].find("cpu"), std::string::npos);
    EXPECT_EQ(r.stats.cpu.loads, 2u);
}

TEST(SystemTest, CpuToGpuToCpuDataflow)
{
    SystemConfig cfg = SystemConfig::microbenchmarkDefault();
    cfg.memOrg = MemOrg::Stash;
    System sys(cfg);

    Workload wl;
    wl.name = "roundtrip";

    // Phase 1: CPU 0 produces.
    std::vector<std::vector<CpuOp>> produce(1);
    for (unsigned i = 0; i < 32; ++i)
        produce[0].push_back(CpuOp{gbase + i * 4, true, 40 + i});
    wl.phases.push_back(Phase::cpu(std::move(produce)));

    // Phase 2: GPU increments through the stash.
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
    tb.warps[0].push_back(computeOp(1, 1));
    tb.warps[0].push_back(tb.storeAccOp(OpKind::StashSt, offs, 0));
    k.blocks.push_back(std::move(tb));
    wl.phases.push_back(Phase::gpu(std::move(k)));

    // Phase 3: CPU 1 consumes and checks.
    std::vector<std::vector<CpuOp>> consume(2);
    for (unsigned i = 0; i < 32; ++i)
        consume[1].push_back(CpuOp{gbase + i * 4, false, 41 + i, true});
    wl.phases.push_back(Phase::cpu(std::move(consume)));

    wl.validate = [](FunctionalMem &fm, std::vector<std::string> &) {
        for (unsigned i = 0; i < 32; ++i) {
            if (fm.readWord(gbase + i * 4) != 41 + i)
                return false;
        }
        return true;
    };

    RunResult r = sys.run(std::move(wl));
    EXPECT_TRUE(r.validated) << (r.errors.empty() ? ""
                                                  : r.errors[0]);
    // The consumption was served by the stash through coherence.
    EXPECT_GE(r.stats.stash.remoteHits, 1u);
}

TEST(SystemTest, WarmupPhasesExcludedFromStats)
{
    SystemConfig cfg = SystemConfig::microbenchmarkDefault();
    cfg.memOrg = MemOrg::Cache;

    auto make = [](unsigned warmup) {
        Workload wl;
        wl.name = "warmup";
        wl.warmupPhases = warmup;
        std::vector<std::vector<CpuOp>> w1(1), w2(1);
        for (unsigned i = 0; i < 64; ++i) {
            w1[0].push_back(CpuOp{gbase + i * 4, true, i});
            w2[0].push_back(CpuOp{gbase + i * 4, false, i, true});
        }
        wl.phases.push_back(Phase::cpu(std::move(w1)));
        wl.phases.push_back(Phase::cpu(std::move(w2)));
        return wl;
    };

    System all(cfg);
    RunResult r_all = all.run(make(0));
    System cut(cfg);
    RunResult r_cut = cut.run(make(1));
    EXPECT_TRUE(r_all.validated && r_cut.validated);
    EXPECT_EQ(r_all.stats.cpu.loads, r_cut.stats.cpu.loads);
    EXPECT_EQ(r_cut.stats.cpu.stores, 0u); // excluded
    EXPECT_LT(r_cut.gpuCycles, r_all.gpuCycles);
}

TEST(SystemTest, AllWarmupWorkloadIsFatal)
{
    // warmupPhases >= phases.size() means the baseline capture point
    // is never reached; the run must refuse up front instead of
    // silently reporting zero-subtracted (i.e. unwarmed) stats.
    SystemConfig cfg = SystemConfig::microbenchmarkDefault();
    cfg.memOrg = MemOrg::Cache;
    System sys(cfg);

    Workload wl;
    wl.name = "all_warmup";
    wl.warmupPhases = 1;
    std::vector<std::vector<CpuOp>> w(1);
    w[0].push_back(CpuOp{gbase, true, 1});
    wl.phases.push_back(Phase::cpu(std::move(w)));

    try {
        sys.run(std::move(wl));
        FAIL() << "all-warmup workload was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("warmupPhases"),
                  std::string::npos)
            << e.what();
    }
}

TEST(EnergyModelTest, UsesTable3Constants)
{
    const EnergyParams p;
    EXPECT_DOUBLE_EQ(p.scratchpadAccess, 55.3);
    EXPECT_DOUBLE_EQ(p.stashHit, 55.4);
    EXPECT_DOUBLE_EQ(p.stashMiss, 86.8);
    EXPECT_DOUBLE_EQ(p.l1Hit, 177.0);
    EXPECT_DOUBLE_EQ(p.l1Miss, 197.0);
    EXPECT_DOUBLE_EQ(p.tlbAccess, 14.1);
}

TEST(EnergyModelTest, BreakdownFollowsCounts)
{
    EnergyModel model;
    SystemStats s;
    s.gpu.instructions = 10;
    s.gpuL1.hitWords = 4;
    s.gpuL1.missWords = 1;
    s.gpuL1.tlbAccesses = 5;
    s.scratch.reads = 3;
    s.stash.hitWords = 2;
    s.stash.missWords = 1;
    s.llc.accesses = 7;
    s.llc.fills = 1;
    s.noc.flitHops[0] = 100;
    s.gpuCycles = 20;
    s.numGpuCus = 2;

    const EnergyParams p;
    EnergyBreakdown e = model.compute(s);
    EXPECT_DOUBLE_EQ(e.gpuCore, 10 * p.gpuCoreInstr +
                                    20 * 2 * p.gpuCorePerCuCycle);
    EXPECT_DOUBLE_EQ(e.l1,
                     4 * p.l1Hit + 1 * p.l1Miss + 5 * p.tlbAccess);
    EXPECT_DOUBLE_EQ(e.local, 3 * p.scratchpadAccess +
                                  2 * p.stashHit + 1 * p.stashMiss);
    EXPECT_DOUBLE_EQ(e.l2, 8 * p.l2Access);
    EXPECT_DOUBLE_EQ(e.noc, 100 * p.nocFlitHop);
    EXPECT_DOUBLE_EQ(e.total(),
                     e.gpuCore + e.l1 + e.local + e.l2 + e.noc);
}

TEST(EnergyModelTest, ScratchpadCheaperThanCacheStashComparable)
{
    // The Table 3 relationships the paper calls out: scratchpad is
    // 29% of an L1 hit; stash hit is comparable to scratchpad; stash
    // miss is 41% of an L1 miss (which pays TLB + tags).
    const EnergyParams p;
    EXPECT_NEAR(p.scratchpadAccess / (p.l1Hit + p.tlbAccess), 0.29,
                0.01);
    EXPECT_NEAR(p.stashHit, p.scratchpadAccess, 0.2);
    EXPECT_NEAR(p.stashMiss / (p.l1Miss + p.tlbAccess), 0.41, 0.01);
}

TEST(SystemTest, StatsFlattenIsComplete)
{
    SystemStats s;
    s.gpu.instructions = 5;
    auto m = s.flatten();
    EXPECT_EQ(m.at("gpu.instructions"), 5.0);
    EXPECT_TRUE(m.count("noc.flitHops.total"));
    EXPECT_TRUE(m.count("stash.loadMisses"));
    EXPECT_TRUE(m.count("sim.gpuCycles"));
}

} // namespace
} // namespace stashsim
