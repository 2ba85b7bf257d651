/**
 * @file
 * End-to-end tests of the synthetic traffic family: every shape runs
 * validated under every memory organization and generation is
 * deterministic.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/system.hh"
#include "workloads/synthetic/synth_engine.hh"
#include "workloads/synthetic/synth_workloads.hh"
#include "workloads/workload_factory.hh"

namespace stashsim
{
namespace
{

using workloads::Scale;
using workloads::SynthConfig;
using workloads::WorkloadFactory;
using workloads::WorkloadParams;

RunResult
runSynthetic(const std::string &name, MemOrg org)
{
    SystemConfig cfg = SystemConfig::applicationDefault();
    cfg.memOrg = org;
    System sys(cfg);
    WorkloadParams p;
    p.org = org;
    p.scale = Scale::Smoke;
    return sys.run(WorkloadFactory::instance().make(name, p));
}

class SynthAllConfigs
    : public ::testing::TestWithParam<std::tuple<std::string, MemOrg>>
{
};

TEST_P(SynthAllConfigs, RunsValidated)
{
    const auto &[name, org] = GetParam();
    RunResult r = runSynthetic(name, org);
    EXPECT_TRUE(r.validated)
        << name << "/" << memOrgName(org)
        << (r.errors.empty() ? "" : (": " + r.errors[0]));
    EXPECT_GT(r.gpuCycles, 0u);
    EXPECT_GT(r.stats.gpu.threadBlocks, 0u);
    if (usesScratchpad(org))
        EXPECT_GT(r.stats.scratch.accesses(), 0u) << name;
    if (usesStash(org))
        EXPECT_GT(r.stats.stash.accesses(), 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SynthAllConfigs,
    ::testing::Combine(
        ::testing::Values("SynthMix", "GraphGather", "AttnScatter",
                          "Stencil2D"),
        ::testing::Values(MemOrg::Scratch, MemOrg::ScratchGD,
                          MemOrg::Cache, MemOrg::StashG)),
    [](const auto &info) {
        return std::get<0>(info.param) +
               std::string(memOrgName(std::get<1>(info.param)));
    });

TEST(SynthDeterminism, SameSeedSameTiming)
{
    // The generator must be a pure function of (spec, seed): two
    // fresh builds of the same workload time out identically.
    for (const char *name :
         {"SynthMix", "GraphGather", "AttnScatter", "Stencil2D"}) {
        RunResult a = runSynthetic(name, MemOrg::Stash);
        RunResult b = runSynthetic(name, MemOrg::Stash);
        EXPECT_EQ(a.gpuCycles, b.gpuCycles) << name;
        EXPECT_EQ(a.stats.gpu.instructions, b.stats.gpu.instructions)
            << name;
    }
}

TEST(SynthDeterminism, SeedChangesTheStream)
{
    SynthConfig a;
    a.seed = 1;
    SynthConfig b = a;
    b.seed = 2;
    // Compare generated address streams via the first GPU phase.
    Workload wa = workloads::makeSynthMix(a);
    Workload wb = workloads::makeSynthMix(b);
    std::ostringstream sa, sb;
    auto dump = [](const Workload &w, std::ostringstream &os) {
        for (const auto &ph : w.phases) {
            if (ph.kind != Phase::Kind::Gpu)
                continue;
            for (const auto &blk : ph.kernel.blocks) {
                for (const auto &warp : blk.warps) {
                    for (const auto &op : warp) {
                        for (Addr adr : blk.lanes(op))
                            os << adr << ',';
                    }
                }
            }
            break;
        }
    };
    dump(wa, sa);
    dump(wb, sb);
    EXPECT_NE(sa.str(), sb.str());
}

TEST(SynthWorkload, WarmupIsAStrictPrefix)
{
    WorkloadParams p;
    p.scale = Scale::Smoke;
    for (const auto &name : workloads::syntheticNames()) {
        Workload wl = WorkloadFactory::instance().make(name, p);
        EXPECT_GT(wl.warmupPhases, 0u) << name;
        EXPECT_LT(wl.warmupPhases, wl.phases.size()) << name;
    }
}

TEST(SynthWorkload, FactoryKindsAndDefaults)
{
    const auto &f = WorkloadFactory::instance();
    const auto *info = f.find("SynthMix");
    ASSERT_NE(info, nullptr);
    EXPECT_STREQ(info->kindName(), "synthetic");
    const auto *replay = f.find("TraceReplay");
    ASSERT_NE(replay, nullptr);
    EXPECT_STREQ(replay->kindName(), "replay");
    // Synthetics run on the 15-CU application machine.
    EXPECT_EQ(f.defaultConfig("SynthMix").numGpuCus,
              SystemConfig::applicationDefault().numGpuCus);
    EXPECT_EQ(f.defaultConfig("TraceReplay").numGpuCus,
              SystemConfig::applicationDefault().numGpuCus);
}

} // namespace
} // namespace stashsim
