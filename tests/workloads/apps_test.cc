/**
 * @file
 * End-to-end tests of the seven applications across configurations,
 * scaled down for test time.
 */

#include <gtest/gtest.h>

#include "driver/system.hh"
#include "workloads/apps.hh"

namespace stashsim
{
namespace
{

using workloads::AppConfig;

AppConfig
smallConfig(MemOrg org)
{
    AppConfig ac;
    ac.org = org;
    ac.ludN = 64;
    ac.bpInputBytes = 8 * 1024;
    ac.nwN = 128;
    ac.pfCols = 256 * 16;
    ac.pfRows = 4;
    ac.sgemmM = 32;
    ac.sgemmK = 32;
    ac.sgemmN = 32;
    ac.stencilX = 64;
    ac.stencilY = 64;
    ac.stencilZ = 2;
    ac.stencilIters = 2;
    ac.surfPixels = 128 * 32;
    return ac;
}

RunResult
runApp(const std::string &name, MemOrg org)
{
    SystemConfig cfg = SystemConfig::applicationDefault();
    cfg.memOrg = org;
    System sys(cfg);
    return sys.run(workloads::makeApplication(name, smallConfig(org)));
}

class AppAllConfigs
    : public ::testing::TestWithParam<std::tuple<std::string, MemOrg>>
{
};

TEST_P(AppAllConfigs, RunsToCompletion)
{
    const auto &[name, org] = GetParam();
    RunResult r = runApp(name, org);
    EXPECT_TRUE(r.validated)
        << name << "/" << memOrgName(org)
        << (r.errors.empty() ? "" : (": " + r.errors[0]));
    EXPECT_GT(r.gpuCycles, 0u);
    EXPECT_GT(r.stats.gpu.threadBlocks, 0u);
    // The run must actually exercise the configured local memory.
    if (usesScratchpad(org)) {
        EXPECT_GT(r.stats.scratch.accesses(), 0u) << name;
    }
    if (usesStash(org)) {
        EXPECT_GT(r.stats.stash.accesses(), 0u) << name;
    }
    if (org == MemOrg::ScratchGD) {
        EXPECT_GT(r.stats.dma.wordsLoaded, 0u) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AppAllConfigs,
    ::testing::Combine(
        ::testing::Values("LUD", "SURF", "BP", "NW", "PF", "SGEMM",
                          "STENCIL"),
        ::testing::Values(MemOrg::Scratch, MemOrg::ScratchGD,
                          MemOrg::Cache, MemOrg::StashG)),
    [](const auto &info) {
        return std::get<0>(info.param) +
               std::string(memOrgName(std::get<1>(info.param)));
    });

TEST(AppClaims, StashReducesInstructionsVsScratch)
{
    // The explicit copy loops disappear in every application.
    for (const auto &name : workloads::applicationNames()) {
        RunResult scratch = runApp(name, MemOrg::Scratch);
        RunResult stash = runApp(name, MemOrg::Stash);
        EXPECT_LT(stash.stats.gpu.instructions,
                  scratch.stats.gpu.instructions)
            << name;
    }
}

TEST(AppClaims, StashGReducesEnergyVsScratchOnAverage)
{
    double ratio_sum = 0;
    for (const auto &name : workloads::applicationNames()) {
        RunResult scratch = runApp(name, MemOrg::Scratch);
        RunResult stashg = runApp(name, MemOrg::StashG);
        ratio_sum += stashg.energy.total() / scratch.energy.total();
    }
    EXPECT_LT(ratio_sum / 7.0, 1.0);
}

TEST(AppClaims, ScratchGIsWorseThanScratchOnAverage)
{
    // Section 6.3: converting reuse-free global accesses to the
    // scratchpad adds instructions and hurts.
    double instr_ratio = 0;
    unsigned n = 0;
    for (const std::string name : {"LUD", "SGEMM", "PF"}) {
        RunResult scratch = runApp(name, MemOrg::Scratch);
        RunResult scratchg = runApp(name, MemOrg::ScratchG);
        instr_ratio += double(scratchg.stats.gpu.instructions) /
                       double(scratch.stats.gpu.instructions);
        ++n;
    }
    EXPECT_GT(instr_ratio / n, 1.0);
}

TEST(AppClaims, PathfinderUsesCrossKernelCommunication)
{
    // Each PF kernel reads the previous kernel's row; with stashes
    // the data is served from registered stash copies (remote or
    // replicated), not re-fetched from memory.
    RunResult stash = runApp("PF", MemOrg::Stash);
    EXPECT_GT(stash.stats.stash.remoteHits +
                  stash.stats.stash.replicationHits +
                  stash.stats.llc.remoteForwards,
              0u);
}

TEST(AppClaims, SgemmExercisesChgMap)
{
    RunResult stash = runApp("SGEMM", MemOrg::Stash);
    EXPECT_GT(stash.stats.stash.chgMaps, 0u);
}

} // namespace
} // namespace stashsim
