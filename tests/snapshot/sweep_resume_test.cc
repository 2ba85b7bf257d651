/**
 * @file
 * SweepDriver resume tests: completed runs are served from their
 * RESULT_* artifacts without re-simulating, a run whose result was
 * lost runs again from tick 0 with the same numbers, a corrupt
 * result (a flipped byte or a truncated file) is quarantined and
 * falls back to simulating with a warning,
 * a result cached under another configuration (verify settings or an
 * edited grid) is re-simulated, never served, and a sweep stopped
 * before or during a run resumes from what it cached.  A parallel
 * rerun serves each kept result exactly once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/sweep.hh"
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

/**
 * A small sweep grid whose workload construction is counted: the
 * counter tells the tests exactly which specs were actually
 * re-simulated on resume (a cached result never builds a workload).
 */
std::vector<RunSpec>
grid(std::atomic<int> *builds,
     const std::vector<const char *> &workloadNames = {"Reuse"})
{
    std::vector<RunSpec> specs;
    for (const char *name : workloadNames) {
        for (const MemOrg org :
             {MemOrg::Scratch, MemOrg::Cache, MemOrg::Stash}) {
            RunSpec s;
            s.workload = name;
            s.org = org;
            s.scale = workloads::Scale::Smoke;
            s.make = [builds, name](const workloads::WorkloadParams &p) {
                builds->fetch_add(1, std::memory_order_relaxed);
                return workloads::WorkloadFactory::instance().make(
                    name, p);
            };
            specs.push_back(std::move(s));
        }
    }
    return specs;
}

std::string
recordFingerprint(const RunRecord &rec)
{
    std::ostringstream os;
    os << rec.spec.label()
       << " validated=" << rec.result.validated
       << " gpuCycles=" << rec.result.gpuCycles
       << " energy=" << rec.result.energy.total()
       << " events=" << rec.result.perf.events
       << " simTicks=" << rec.result.perf.simTicks << "\n";
    for (const auto &[key, value] : rec.result.stats.flatten())
        os << key << "=" << value << "\n";
    return os.str();
}

std::vector<std::string>
fingerprints(const std::vector<RunRecord> &recs)
{
    std::vector<std::string> out;
    for (const RunRecord &rec : recs)
        out.push_back(recordFingerprint(rec));
    return out;
}

/** Files in @p dir whose name starts with @p prefix. */
std::vector<std::string>
filesWithPrefix(const std::string &dir, const std::string &prefix)
{
    std::vector<std::string> out;
    if (!fs::exists(dir))
        return out;
    for (const auto &de : fs::directory_iterator(dir))
        if (de.path().filename().string().rfind(prefix, 0) == 0)
            out.push_back(de.path().string());
    std::sort(out.begin(), out.end());
    return out;
}

SweepOptions
stateOpts(const std::string &dir, std::ostream *progress)
{
    SweepOptions opts;
    opts.threads = 1;
    opts.progress = progress;
    opts.stateDir = dir;
    return opts;
}

TEST(SweepResumeTest, CompletedRunsAreServedFromCache)
{
    const std::string dir = freshDir("sweep_cached");
    std::atomic<int> builds{0};
    std::ostringstream firstLog;
    const auto first =
        SweepDriver(stateOpts(dir, &firstLog)).run(grid(&builds));
    ASSERT_EQ(first.size(), 3u);
    for (const RunRecord &rec : first)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();
    const int fresh = builds.load();
    EXPECT_EQ(fresh, 3);
    EXPECT_EQ(filesWithPrefix(dir, "RESULT_").size(), 3u);

    std::ostringstream secondLog;
    const auto second =
        SweepDriver(stateOpts(dir, &secondLog)).run(grid(&builds));
    EXPECT_EQ(builds.load(), fresh)
        << "a cached run was re-simulated";
    EXPECT_EQ(fingerprints(first), fingerprints(second));
    EXPECT_NE(secondLog.str().find("(cached)"), std::string::npos)
        << secondLog.str();
}

/**
 * A sweep that lost one run's RESULT_* file (a crash before that run
 * cached its result) serves the others and runs that one again from
 * tick 0.
 */
TEST(SweepResumeTest, LostResultIsReSimulatedFromTickZero)
{
    const std::string dir = freshDir("sweep_interrupted");
    std::atomic<int> builds{0};
    std::ostringstream log;
    const auto first =
        SweepDriver(stateOpts(dir, &log)).run(grid(&builds));
    for (const RunRecord &rec : first)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();
    const int fresh = builds.load();

    // Simulate a crash after two of the three runs finished: one
    // RESULT artifact never got written.
    const auto results = filesWithPrefix(dir, "RESULT_");
    ASSERT_EQ(results.size(), 3u);
    fs::remove(results[0]);

    std::ostringstream resumeLog;
    const auto second =
        SweepDriver(stateOpts(dir, &resumeLog)).run(grid(&builds));
    EXPECT_EQ(builds.load(), fresh + 1)
        << "exactly the interrupted run should re-simulate";
    EXPECT_EQ(fingerprints(first), fingerprints(second));
    // The rerun re-cached its result.
    EXPECT_EQ(filesWithPrefix(dir, "RESULT_").size(), 3u);
}

TEST(SweepResumeTest, FlippedByteFallsBackWithWarning)
{
    const std::string dir = freshDir("sweep_corrupt");
    std::atomic<int> builds{0};
    const auto first =
        SweepDriver(stateOpts(dir, nullptr)).run(grid(&builds));
    for (const RunRecord &rec : first)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();
    const int fresh = builds.load();

    // Flip the last byte: every field still parses, and only the
    // CRC catches the damage.
    const auto results = filesWithPrefix(dir, "RESULT_");
    ASSERT_EQ(results.size(), 3u);
    const std::string victim = results[1];
    {
        std::fstream f(victim,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(-1, std::ios::end);
        const char last = char(f.get());
        f.seekp(-1, std::ios::end);
        f.put(char(last ^ 0x5a));
    }

    std::ostringstream log;
    const SweepOptions opts = stateOpts(dir, &log);
    SweepCounters counters;
    const auto second = SweepDriver(opts).run(grid(&builds), &counters);
    EXPECT_EQ(fingerprints(first), fingerprints(second));
    EXPECT_EQ(builds.load(), fresh + 1)
        << "only the corrupt result falls back to simulating";
    EXPECT_EQ(counters.corruptSnapshots, 1u);
    EXPECT_EQ(counters.quarantinedArtifacts, 1u);
    EXPECT_EQ(counters.cachedRuns, 2u);
    EXPECT_NE(log.str().find("'" + victim +
                             "' is corrupt; quarantined; re-simulating"),
              std::string::npos)
        << log.str();
    // The damaged file is kept for postmortem, not simulated over.
    const auto quarantined =
        filesWithPrefix(dir + "/QUARANTINE", "RESULT_");
    ASSERT_EQ(quarantined.size(), 1u);
    EXPECT_EQ(fs::path(quarantined[0]).filename().string(),
              fs::path(victim).filename().string());

    // The fallback cached a sound result in the corrupt one's place.
    SweepCounters third;
    SweepDriver(opts).run(grid(&builds), &third);
    EXPECT_EQ(builds.load(), fresh + 1);
    EXPECT_EQ(third.cachedRuns, 3u);
}

/**
 * A RESULT file cut short (a half-written copy, a full disk) fails
 * its CRC too; it is moved to QUARANTINE/ and its spec alone is
 * re-simulated.
 */
TEST(SweepResumeTest, CorruptResultIsQuarantinedAndResimulated)
{
    const std::string dir = freshDir("sweep_truncated_result");
    std::atomic<int> builds{0};
    const auto first =
        SweepDriver(stateOpts(dir, nullptr)).run(grid(&builds));
    for (const RunRecord &rec : first)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();
    const int fresh = builds.load();

    const auto results = filesWithPrefix(dir, "RESULT_");
    ASSERT_EQ(results.size(), 3u);
    fs::resize_file(results[0], fs::file_size(results[0]) / 2);

    std::ostringstream log;
    SweepCounters counters;
    const auto second =
        SweepDriver(stateOpts(dir, &log)).run(grid(&builds), &counters);
    EXPECT_EQ(fingerprints(first), fingerprints(second));
    EXPECT_EQ(builds.load(), fresh + 1)
        << "exactly the corrupted spec re-simulates";
    EXPECT_EQ(counters.corruptSnapshots, 1u);
    EXPECT_EQ(counters.quarantinedArtifacts, 1u);
    EXPECT_EQ(counters.cachedRuns, 2u);
    const auto quarantined =
        filesWithPrefix(dir + "/QUARANTINE", "RESULT_");
    ASSERT_EQ(quarantined.size(), 1u);
    EXPECT_EQ(fs::path(quarantined[0]).filename().string(),
              fs::path(results[0]).filename().string());
    EXPECT_NE(log.str().find("'" + results[0] + "' is corrupt"),
              std::string::npos)
        << log.str();
    EXPECT_EQ(filesWithPrefix(dir, "RESULT_").size(), 3u);
}

/**
 * The injector changes a run's timing, so a result cached by the
 * clean run of a spec must not answer for its fault-injected twin
 * under the same label: the twin re-simulates and reports its own
 * cycles.
 */
TEST(SweepResumeTest, FaultInjectedSpecIsReSimulatedNotServed)
{
    const std::string dir = freshDir("sweep_fault_injected");
    RunSpec clean;
    clean.workload = "Reuse";
    clean.org = MemOrg::Stash;
    clean.scale = workloads::Scale::Smoke;

    SweepOptions opts = stateOpts(dir, nullptr);
    const auto cleanRecs = SweepDriver(opts).run({clean});
    ASSERT_TRUE(cleanRecs[0].result.validated);

    RunSpec faulty = clean;
    SystemConfig cfg = resolveRunConfig(clean);
    cfg.verify.faultInjection = true;
    cfg.verify.faultDelayPermille = 500;
    faulty.config = cfg;
    const RunResult direct = runSpec(faulty);
    ASSERT_TRUE(direct.validated);
    ASSERT_NE(direct.gpuCycles, cleanRecs[0].result.gpuCycles)
        << "the injector must move this run's timing";

    std::ostringstream log;
    opts.progress = &log;
    SweepCounters counters;
    const auto faultyRecs = SweepDriver(opts).run({faulty}, &counters);
    EXPECT_EQ(faultyRecs[0].result.gpuCycles, direct.gpuCycles);
    EXPECT_EQ(counters.cachedRuns, 0u);
    EXPECT_EQ(counters.staleResults, 1u);
    EXPECT_EQ(log.str().find("(cached)"), std::string::npos)
        << log.str();
}

/**
 * Editing the grid (same labels, another machine) turns every cached
 * result stale: each is quarantined and re-simulated, none is served.
 */
TEST(SweepResumeTest, StaleResultFromEditedGridIsNotServed)
{
    const std::string dir = freshDir("sweep_edited_grid");
    std::atomic<int> builds{0};
    const auto first =
        SweepDriver(stateOpts(dir, nullptr)).run(grid(&builds));
    for (const RunRecord &rec : first)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();
    const int fresh = builds.load();

    auto edited = grid(&builds);
    for (RunSpec &s : edited) {
        SystemConfig cfg = SystemConfig::microbenchmarkDefault();
        cfg.l1Bytes *= 2;
        s.config = cfg;
    }
    std::ostringstream log;
    SweepCounters counters;
    const auto second = SweepDriver(stateOpts(dir, &log))
                            .run(std::move(edited), &counters);
    for (const RunRecord &rec : second)
        EXPECT_TRUE(rec.result.validated) << rec.spec.label();
    EXPECT_EQ(builds.load(), fresh + 3)
        << "every stale spec must re-simulate";
    EXPECT_EQ(counters.cachedRuns, 0u);
    EXPECT_EQ(counters.staleResults, 3u);
    EXPECT_EQ(filesWithPrefix(dir + "/QUARANTINE", "RESULT_").size(), 3u);
    EXPECT_NE(log.str().find("different configuration"),
              std::string::npos)
        << log.str();
}

/**
 * A stop request that lands before the sweep starts runs and caches
 * nothing; the next sweep over the same directory finishes the grid
 * with the uninterrupted numbers.
 */
TEST(SweepResumeTest, StopFlagInterruptsResumablyMidCampaign)
{
    std::atomic<int> builds{0};
    const auto reference =
        SweepDriver(stateOpts(freshDir("sweep_stop_ref"), nullptr))
            .run(grid(&builds));
    for (const RunRecord &rec : reference)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();

    const std::string dir = freshDir("sweep_stop");
    std::atomic<bool> stop{true};
    SweepOptions opts = stateOpts(dir, nullptr);
    opts.stop = &stop;
    SweepCounters counters;
    const auto interrupted =
        SweepDriver(opts).run(grid(&builds), &counters);
    EXPECT_TRUE(counters.interrupted);
    ASSERT_EQ(interrupted.size(), 3u);
    for (const RunRecord &rec : interrupted)
        EXPECT_FALSE(rec.result.validated) << rec.spec.label();
    EXPECT_TRUE(filesWithPrefix(dir, "RESULT_").empty());

    SweepCounters resumedCounters;
    const auto resumed = SweepDriver(stateOpts(dir, nullptr))
                             .run(grid(&builds), &resumedCounters);
    EXPECT_EQ(fingerprints(reference), fingerprints(resumed));
    EXPECT_FALSE(resumedCounters.interrupted);
    EXPECT_EQ(resumedCounters.cachedRuns, 0u);
    EXPECT_EQ(filesWithPrefix(dir, "RESULT_").size(), 3u);
}

/**
 * A stop request that lands while the first spec is in flight: that
 * run finishes and caches its result, no other spec starts, and the
 * next sweep serves the finished run and runs the others from tick 0.
 */
TEST(SweepResumeTest, StopDuringARunCachesThatRunOnly)
{
    std::atomic<int> builds{0};
    const auto reference =
        SweepDriver(stateOpts(freshDir("sweep_midrun_ref"), nullptr))
            .run(grid(&builds));

    const std::string dir = freshDir("sweep_midrun");
    std::atomic<bool> stop{false};
    std::vector<RunSpec> specs = grid(&builds);
    specs[0].instrument = [&stop](System &) { stop = true; };
    SweepOptions opts = stateOpts(dir, nullptr);
    opts.stop = &stop;
    SweepCounters counters;
    const auto stopped = SweepDriver(opts).run(specs, &counters);
    EXPECT_TRUE(counters.interrupted);
    ASSERT_EQ(stopped.size(), 3u);
    EXPECT_EQ(fingerprints({reference[0]}), fingerprints({stopped[0]}));
    for (std::size_t i = 1; i < stopped.size(); ++i) {
        EXPECT_FALSE(stopped[i].result.validated);
        ASSERT_EQ(stopped[i].result.errors.size(), 1u);
        EXPECT_EQ(stopped[i].result.errors[0],
                  "interrupted before completion");
    }
    EXPECT_EQ(filesWithPrefix(dir, "RESULT_").size(), 1u);

    const int before = builds.load();
    SweepCounters resumedCounters;
    const auto resumed = SweepDriver(stateOpts(dir, nullptr))
                             .run(grid(&builds), &resumedCounters);
    EXPECT_EQ(fingerprints(reference), fingerprints(resumed));
    EXPECT_EQ(resumedCounters.cachedRuns, 1u);
    EXPECT_EQ(builds.load(), before + 2);
}

/**
 * Each spec is visited by exactly one sweep thread, so a parallel
 * rerun over a half-deleted cache serves exactly the kept results:
 * no thread may report a result another thread just simulated and
 * cached as "(cached)".
 */
TEST(SweepResumeTest, ParallelRerunServesExactlyTheKeptResults)
{
    const std::string dir = freshDir("sweep_parallel_rerun");
    std::atomic<int> builds{0};
    SweepOptions opts = stateOpts(dir, nullptr);
    opts.threads = 4;
    const auto first =
        SweepDriver(opts).run(grid(&builds, {"Reuse", "Implicit"}));
    ASSERT_EQ(first.size(), 6u);
    for (const RunRecord &rec : first)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();
    const auto results = filesWithPrefix(dir, "RESULT_");
    ASSERT_EQ(results.size(), 6u);
    for (std::size_t i = 0; i < results.size(); i += 2)
        fs::remove(results[i]);

    builds = 0;
    std::ostringstream log;
    opts.progress = &log;
    SweepCounters counters;
    const auto second = SweepDriver(opts).run(
        grid(&builds, {"Reuse", "Implicit"}), &counters);
    EXPECT_EQ(fingerprints(first), fingerprints(second));
    EXPECT_EQ(counters.cachedRuns, 3u);
    EXPECT_EQ(builds.load(), 3);
    const std::string text = log.str();
    std::size_t served = 0;
    for (std::size_t p = text.find("(cached)"); p != std::string::npos;
         p = text.find("(cached)", p + 1))
        ++served;
    EXPECT_EQ(served, 3u) << text;
    EXPECT_EQ(filesWithPrefix(dir, "RESULT_").size(), 6u);
}

} // namespace
} // namespace stashsim
