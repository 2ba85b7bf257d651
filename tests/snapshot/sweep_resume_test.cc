/**
 * @file
 * SweepDriver resume tests: completed runs are served from their
 * RESULT_* artifacts without re-simulating, a run whose result was
 * lost runs again from tick 0 with the same numbers, a corrupt
 * result falls back to simulating with a warning, and a result
 * cached under another configuration (verify settings included) is
 * re-simulated, never served.
 */

#include <gtest/gtest.h>

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
grid(std::atomic<int> *builds)
{
    std::vector<RunSpec> specs;
    for (const MemOrg org :
         {MemOrg::Scratch, MemOrg::Cache, MemOrg::Stash}) {
        RunSpec s;
        s.workload = "Reuse";
        s.org = org;
        s.scale = workloads::Scale::Smoke;
        s.make = [builds](const workloads::WorkloadParams &p) {
            builds->fetch_add(1, std::memory_order_relaxed);
            return workloads::WorkloadFactory::instance().make(
                "Reuse", p);
        };
        specs.push_back(std::move(s));
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
    SweepOptions opts = stateOpts(dir, &secondLog);
    opts.resume = true;
    const auto second = SweepDriver(opts).run(grid(&builds));
    EXPECT_EQ(builds.load(), fresh)
        << "a cached run was re-simulated";
    EXPECT_EQ(fingerprints(first), fingerprints(second));
    EXPECT_NE(secondLog.str().find("(cached)"), std::string::npos)
        << secondLog.str();
}

/**
 * A sweep's latest checkpoint is the set of RESULT_* artifacts its
 * finished runs left: a sweep interrupted before one run cached its
 * result serves the others and runs that one again from tick 0.
 */
TEST(SweepResumeTest, InterruptedRunRestartsFromLatestCheckpoint)
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
    SweepOptions opts = stateOpts(dir, &resumeLog);
    opts.resume = true;
    const auto second = SweepDriver(opts).run(grid(&builds));
    EXPECT_EQ(builds.load(), fresh + 1)
        << "exactly the interrupted run should re-simulate";
    EXPECT_EQ(fingerprints(first), fingerprints(second));
    // The rerun re-cached its result.
    EXPECT_EQ(filesWithPrefix(dir, "RESULT_").size(), 3u);
}

TEST(SweepResumeTest, CorruptCheckpointFallsBackWithWarning)
{
    const std::string dir = freshDir("sweep_corrupt");
    std::atomic<int> builds{0};
    const auto first =
        SweepDriver(stateOpts(dir, nullptr)).run(grid(&builds));
    for (const RunRecord &rec : first)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();
    const int fresh = builds.load();

    // Flip one payload byte: the header still parses, and only the
    // section CRC catches the damage.
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
    SweepOptions opts = stateOpts(dir, &log);
    opts.resume = true;
    SweepCounters counters;
    const auto second = SweepDriver(opts).run(grid(&builds), &counters);
    EXPECT_EQ(fingerprints(first), fingerprints(second));
    EXPECT_EQ(builds.load(), fresh + 1)
        << "only the corrupt result falls back to simulating";
    EXPECT_EQ(counters.corruptSnapshots, 1u);
    EXPECT_EQ(counters.cachedRuns, 2u);
    EXPECT_NE(log.str().find("'" + victim + "' is corrupt"),
              std::string::npos)
        << log.str();
    EXPECT_NE(log.str().find("re-simulating"), std::string::npos)
        << log.str();

    // The fallback cached a sound result in the corrupt one's place.
    SweepCounters third;
    SweepDriver(opts).run(grid(&builds), &third);
    EXPECT_EQ(builds.load(), fresh + 1);
    EXPECT_EQ(third.cachedRuns, 3u);
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
    opts.resume = true;
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

} // namespace
} // namespace stashsim
