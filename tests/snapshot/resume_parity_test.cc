/**
 * @file
 * End-to-end resume parity through the RESULT cache: a run whose
 * RESULT_* artifact a resumed sweep serves must report numbers
 * byte-identical to simulating it — every stats counter, the energy
 * breakdown and the deterministic SimPerf counters — under every
 * memory backend, with the fault injector on, and for the synthetic
 * workloads.  Writing the cache must not perturb a run, a checked
 * spec must never be handed an unchecked result, and an artifact
 * from another configuration, backend, workload or scale must be
 * rejected with a diagnostic and re-simulated instead of served.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "driver/sweep.hh"
#include "mem/backend/mem_backend.hh"
#include "verify/protocol_checker.hh"
#include "workloads/workload_factory.hh"

namespace stashsim
{
namespace
{

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    const std::string d = ::testing::TempDir() + name;
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
}

/** Every RESULT_* artifact in @p dir, sorted by name. */
std::vector<std::string>
resultsIn(const std::string &dir)
{
    std::vector<std::string> out;
    for (const auto &de : fs::directory_iterator(dir))
        if (de.path().filename().string().rfind("RESULT_", 0) == 0)
            out.push_back(de.path().string());
    std::sort(out.begin(), out.end());
    return out;
}

/** Every deterministic observable of a run, one comparable string. */
std::string
fingerprint(const RunResult &r)
{
    std::ostringstream os;
    os << "validated=" << r.validated
       << " gpuCycles=" << r.gpuCycles
       << " energy=" << r.energy.total()
       << " events=" << r.perf.events
       << " simTicks=" << r.perf.simTicks << "\n";
    for (const auto &[key, value] : r.stats.flatten())
        os << key << "=" << value << "\n";
    return os.str();
}

RunSpec
baseSpec(workloads::Scale scale = workloads::Scale::Smoke)
{
    RunSpec spec;
    spec.workload = "Reuse"; // multi-phase: warmup, kernels, readback
    spec.org = MemOrg::Stash;
    spec.scale = scale;
    return spec;
}

/**
 * Makes @p spec count its workload builds in @p builds: a served
 * result never builds one, so the count tells exactly which specs
 * were simulated.
 */
RunSpec
counted(RunSpec spec, std::atomic<int> *builds)
{
    // A custom builder defaults to the microbenchmark machine; keep
    // the one the factory workload runs on.
    spec.config = resolveRunConfig(spec);
    const std::string name = spec.workload;
    spec.make = [builds, name](const workloads::WorkloadParams &p) {
        builds->fetch_add(1, std::memory_order_relaxed);
        return workloads::WorkloadFactory::instance().make(name, p);
    };
    return spec;
}

SweepOptions
resumeOpts(const std::string &dir, std::ostream *progress = nullptr)
{
    SweepOptions opts;
    opts.threads = 1;
    opts.progress = progress;
    opts.stateDir = dir;
    return opts;
}

/** Runs @p spec alone in a resume sweep over @p dir. */
RunResult
sweepOne(const std::string &dir, RunSpec spec,
         SweepCounters *counters = nullptr,
         std::ostream *progress = nullptr)
{
    auto recs = SweepDriver(resumeOpts(dir, progress))
                    .run({std::move(spec)}, counters);
    return recs.at(0).result;
}

/**
 * Caches @p wrong's result, plants it where @p spec's result belongs,
 * and resumes @p spec over it: the artifact must be rejected with the
 * stale-result diagnostic and the spec re-simulated to the numbers a
 * direct run reports.
 */
void
expectForeignResultRejected(const std::string &name, RunSpec wrong,
                            RunSpec spec)
{
    const std::string wrongDir = freshDir(name + "_wrong");
    ASSERT_TRUE(sweepOne(wrongDir, std::move(wrong)).validated) << name;
    const auto planted = resultsIn(wrongDir);
    ASSERT_EQ(planted.size(), 1u) << name;

    const std::string dir = freshDir(name);
    const RunResult direct = sweepOne(dir, spec);
    ASSERT_TRUE(direct.validated) << name;
    const auto own = resultsIn(dir);
    ASSERT_EQ(own.size(), 1u) << name;
    fs::copy_file(planted[0], own[0],
                  fs::copy_options::overwrite_existing);

    std::atomic<int> builds{0};
    std::ostringstream log;
    SweepCounters counters;
    const RunResult rerun =
        sweepOne(dir, counted(spec, &builds), &counters, &log);
    EXPECT_EQ(builds.load(), 1) << name << ": must re-simulate";
    EXPECT_EQ(counters.cachedRuns, 0u) << name;
    EXPECT_EQ(counters.staleResults, 1u) << name;
    EXPECT_NE(log.str().find("belongs to a different configuration"),
              std::string::npos)
        << name << ": " << log.str();
    EXPECT_EQ(log.str().find("(cached)"), std::string::npos)
        << name << ": " << log.str();
    EXPECT_EQ(fingerprint(direct), fingerprint(rerun)) << name;
}

TEST(ResumeParityTest, CachingIsObservationallyPure)
{
    // Caching a result must not perturb the run that writes it.
    const std::string dir = freshDir("cache_pure");
    const RunResult plain = runSpec(baseSpec());
    ASSERT_TRUE(plain.validated);

    const auto cached = SweepDriver(resumeOpts(dir)).run({baseSpec()});
    EXPECT_EQ(fingerprint(plain), fingerprint(cached[0].result));
    EXPECT_EQ(resultsIn(dir).size(), 1u)
        << "a completed run must leave its RESULT artifact";
}

TEST(ResumeParityTest, RestoredRunFinishesByteIdentical)
{
    for (const workloads::Scale scale :
         {workloads::Scale::Smoke, workloads::Scale::Quick}) {
        const std::string name = workloads::scaleName(scale);
        const std::string dir = freshDir("restore_" + name);
        std::atomic<int> builds{0};
        const RunResult full =
            sweepOne(dir, counted(baseSpec(scale), &builds));
        ASSERT_TRUE(full.validated) << name;
        ASSERT_EQ(builds.load(), 1) << name;

        std::ostringstream log;
        SweepCounters counters;
        const RunResult served = sweepOne(
            dir, counted(baseSpec(scale), &builds), &counters, &log);
        EXPECT_EQ(builds.load(), 1) << name << ": served, not rerun";
        EXPECT_EQ(counters.cachedRuns, 1u) << name;
        EXPECT_NE(log.str().find("(cached)"), std::string::npos)
            << log.str();
        EXPECT_EQ(fingerprint(full), fingerprint(served)) << name;
    }
}

TEST(ResumeParityTest, VerifyInstrumentsStayArmedAcrossRestore)
{
    // The clean run's cached result carries no checker verdict, so a
    // resume must re-simulate the checked spec with its instruments
    // armed instead of serving it — and then serve the checked
    // result to the same checked spec.
    const std::string dir = freshDir("restore_verify");
    ASSERT_TRUE(sweepOne(dir, baseSpec()).validated);

    RunSpec checked = baseSpec();
    SystemConfig cfg = resolveRunConfig(checked);
    cfg.verify.protocolChecker = true;
    cfg.verify.watchdog = true;
    checked.config = cfg;
    std::uint64_t audits = 0;
    checked.finish = [&audits](System &sys, const RunResult &) {
        audits = sys.checker() ? sys.checker()->auditsRun() : 0;
    };

    std::atomic<int> builds{0};
    SweepCounters counters;
    const RunResult first =
        sweepOne(dir, counted(checked, &builds), &counters);
    ASSERT_TRUE(first.validated)
        << (first.errors.empty() ? "?" : first.errors[0]);
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(counters.staleResults, 1u);
    EXPECT_GT(audits, 0u) << "the checker must run, not be skipped";

    SweepCounters again;
    const RunResult served =
        sweepOne(dir, counted(checked, &builds), &again);
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(again.cachedRuns, 1u);
    EXPECT_EQ(fingerprint(first), fingerprint(served));
}

TEST(ResumeParityTest, SyntheticRestoreFromEveryCheckpoint)
{
    // A synthetic grid resumed from each one of its RESULT artifacts
    // alone: that spec is served, the others re-simulate, and every
    // record matches the uninterrupted sweep.
    std::vector<RunSpec> specs;
    for (const MemOrg org :
         {MemOrg::Scratch, MemOrg::Cache, MemOrg::Stash}) {
        RunSpec s;
        s.workload = "SynthMix";
        s.org = org;
        s.scale = workloads::Scale::Smoke;
        specs.push_back(std::move(s));
    }
    const std::string refDir = freshDir("restore_synth_ref");
    const auto ref = SweepDriver(resumeOpts(refDir)).run(specs);
    for (const RunRecord &rec : ref)
        ASSERT_TRUE(rec.result.validated)
            << rec.spec.label() << ": "
            << (rec.result.errors.empty() ? "?" : rec.result.errors[0]);
    const auto results = resultsIn(refDir);
    ASSERT_EQ(results.size(), specs.size());

    for (const std::string &kept : results) {
        const std::string dir = freshDir("restore_synth");
        fs::copy_file(kept,
                      dir + "/" + fs::path(kept).filename().string());
        std::atomic<int> builds{0};
        std::vector<RunSpec> grid;
        for (const RunSpec &s : specs)
            grid.push_back(counted(s, &builds));
        SweepCounters counters;
        const auto resumed =
            SweepDriver(resumeOpts(dir)).run(grid, &counters);
        EXPECT_EQ(counters.cachedRuns, 1u) << kept;
        EXPECT_EQ(builds.load(), int(specs.size()) - 1) << kept;
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(fingerprint(ref[i].result),
                      fingerprint(resumed[i].result))
                << specs[i].label() << ", resumed from " << kept;
    }
}

TEST(ResumeParityTest, SyntheticScaleMismatchIsRejected)
{
    // The scale is part of a result's identity: a smoke-scale
    // synthetic result must not answer for the quick-scale run.
    RunSpec smoke;
    smoke.workload = "GraphGather";
    smoke.org = MemOrg::Stash;
    smoke.scale = workloads::Scale::Smoke;
    RunSpec quick = smoke;
    quick.scale = workloads::Scale::Quick;
    expectForeignResultRejected("restore_synth_scale", smoke, quick);
}

TEST(ResumeParityTest, ConfigMismatchIsRejectedWithDiagnostic)
{
    // A result answers only for the machine that produced it: a
    // change to any hashed field, GPU side, memory backend or LLC
    // alike, turns the cached artifact stale.
    const std::vector<std::pair<const char *,
                                std::function<void(SystemConfig &)>>>
        changes = {
            {"l1Bytes", [](SystemConfig &c) { c.l1Bytes *= 2; }},
            {"memOrg", [](SystemConfig &c) { c.memOrg = MemOrg::Cache; }},
            {"memBackend.kind",
             [](SystemConfig &c) {
                 c.memBackend.kind = MemBackendKind::SttMram;
             }},
            {"llcAssoc", [](SystemConfig &c) { c.llcAssoc *= 2; }},
        };
    for (const auto &[field, change] : changes) {
        RunSpec other = baseSpec();
        SystemConfig cfg = resolveRunConfig(other);
        change(cfg);
        other.config = cfg;
        other.org = cfg.memOrg;
        expectForeignResultRejected(
            std::string("restore_cfg_") + field, baseSpec(), other);
    }
}

TEST(ResumeParityTest, WorkloadMismatchIsRejectedWithDiagnostic)
{
    RunSpec other = baseSpec();
    other.workload = "Implicit"; // same machine, different workload
    expectForeignResultRejected("restore_wl_mismatch", baseSpec(),
                                other);
}

TEST(ResumeParityTest, FixedBackendIsTheDefaultSpelledExplicitly)
{
    // `backend = Fixed` is the seed's memory model made explicit: a
    // run selecting it (memback's fixed runs) must be
    // indistinguishable from a run that never mentions a backend
    // (every other bench's runs), down to the cached result, which
    // answers for both.
    const RunSpec plain = baseSpec();
    RunSpec fixed = baseSpec();
    fixed.backend = MemBackendKind::Fixed;

    const RunResult a = runSpec(plain);
    ASSERT_TRUE(a.validated);
    EXPECT_EQ(fingerprint(a), fingerprint(runSpec(fixed)));

    const std::string dir = freshDir("restore_fixed_default");
    ASSERT_TRUE(sweepOne(dir, plain).validated);
    std::atomic<int> builds{0};
    SweepCounters counters;
    const RunResult served =
        sweepOne(dir, counted(fixed, &builds), &counters);
    EXPECT_EQ(builds.load(), 0);
    EXPECT_EQ(counters.cachedRuns, 1u);
    EXPECT_EQ(fingerprint(a), fingerprint(served));
}

TEST(ResumeParityTest, EveryMemBackendRestoresByteIdentical)
{
    for (const MemBackendInfo &info : memBackendList()) {
        const std::string dir =
            freshDir(std::string("restore_backend_") + info.name);
        RunSpec spec = baseSpec();
        spec.backend = info.kind;
        std::atomic<int> builds{0};
        const RunResult full = sweepOne(dir, counted(spec, &builds));
        ASSERT_TRUE(full.validated) << info.name;

        SweepCounters counters;
        const RunResult served =
            sweepOne(dir, counted(spec, &builds), &counters);
        EXPECT_EQ(builds.load(), 1) << info.name;
        EXPECT_EQ(counters.cachedRuns, 1u) << info.name;
        EXPECT_EQ(fingerprint(full), fingerprint(served)) << info.name;
    }
}

TEST(ResumeParityTest, BackendMismatchIsRejectedWithDiagnostic)
{
    // The backend kind folds into the config hash: an sttmram result
    // must not answer for the scmcache run of the same spec.
    RunSpec sttmram = baseSpec();
    sttmram.backend = MemBackendKind::SttMram;
    RunSpec scmcache = baseSpec();
    scmcache.backend = MemBackendKind::ScmCache;
    expectForeignResultRejected("restore_backend_mismatch", sttmram,
                                scmcache);
}

TEST(ResumeParityTest, FaultInjectedRunRestoresByteIdentical)
{
    // A fault-injected run's cached result is served to the same
    // injector settings, and to those only: another fault seed draws
    // other perturbations, so its run is simulated.
    RunSpec spec = baseSpec();
    SystemConfig cfg = resolveRunConfig(spec);
    cfg.verify.faultInjection = true;
    cfg.verify.faultSeed = 12345;
    cfg.verify.faultDelayPermille = 100;
    cfg.verify.faultDupPermille = 50;
    spec.config = cfg;

    const std::string dir = freshDir("restore_faults");
    std::atomic<int> builds{0};
    const RunResult full = sweepOne(dir, counted(spec, &builds));
    ASSERT_TRUE(full.validated)
        << (full.errors.empty() ? "?" : full.errors[0]);

    SweepCounters counters;
    const RunResult served =
        sweepOne(dir, counted(spec, &builds), &counters);
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(counters.cachedRuns, 1u);
    EXPECT_EQ(fingerprint(full), fingerprint(served));

    RunSpec reseeded = spec;
    cfg.verify.faultSeed = 54321;
    reseeded.config = cfg;
    expectForeignResultRejected("restore_faults_seed", spec, reseeded);
}

} // namespace
} // namespace stashsim
