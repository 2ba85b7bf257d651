/**
 * @file
 * SweepDriver resume tests: completed runs are served from their
 * RESULT_* artifacts without re-simulating, interrupted runs restart
 * from their latest CKPT_* snapshot, and a corrupt snapshot degrades
 * to a warning plus a from-scratch rerun — never a failed sweep and
 * never different numbers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
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
        s.workload = "Reuse"; // multi-phase: every run checkpoints
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
    opts.checkpointEveryTicks = 1;
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
    // RESULT artifact never got written, but its checkpoints did.
    const auto results = filesWithPrefix(dir, "RESULT_");
    ASSERT_EQ(results.size(), 3u);
    fs::remove(results[0]);
    ASSERT_FALSE(filesWithPrefix(dir, "CKPT_").empty());

    std::ostringstream resumeLog;
    SweepOptions opts = stateOpts(dir, &resumeLog);
    opts.resume = true;
    const auto second = SweepDriver(opts).run(grid(&builds));
    EXPECT_EQ(builds.load(), fresh + 1)
        << "exactly the interrupted run should re-simulate";
    EXPECT_EQ(fingerprints(first), fingerprints(second));
    EXPECT_NE(resumeLog.str().find("(resumed)"), std::string::npos)
        << resumeLog.str();
    // The rerun re-cached its result.
    EXPECT_EQ(filesWithPrefix(dir, "RESULT_").size(), 3u);
}

TEST(SweepResumeTest, CorruptCheckpointFallsBackWithWarning)
{
    const std::string dir = freshDir("sweep_corrupt");
    std::atomic<int> builds{0};
    std::ostringstream log;
    const auto first =
        SweepDriver(stateOpts(dir, &log)).run(grid(&builds));
    for (const RunRecord &rec : first)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();

    // Lose one run's RESULT and truncate every one of its
    // checkpoints: resume must warn, fall back to tick 0, and still
    // produce the same numbers.
    const auto results = filesWithPrefix(dir, "RESULT_");
    ASSERT_EQ(results.size(), 3u);
    const std::string victim = results[1];
    const std::string base = fs::path(victim).filename().string();
    // "RESULT_<label>.snap" -> "CKPT_<label>@"
    const std::string ckptPrefix =
        "CKPT_" + base.substr(7, base.size() - 7 - 5) + "@";
    fs::remove(victim);
    const auto ckpts = filesWithPrefix(dir, ckptPrefix);
    ASSERT_FALSE(ckpts.empty());
    for (const std::string &c : ckpts)
        fs::resize_file(c, fs::file_size(c) / 2);

    std::ostringstream resumeLog;
    SweepOptions opts = stateOpts(dir, &resumeLog);
    opts.resume = true;
    const auto second = SweepDriver(opts).run(grid(&builds));
    EXPECT_EQ(fingerprints(first), fingerprints(second));
    EXPECT_NE(resumeLog.str().find("unusable"), std::string::npos)
        << resumeLog.str();
    EXPECT_NE(resumeLog.str().find("falling back"),
              std::string::npos);
    // Fallback went all the way to a fresh run, not a resume.
    EXPECT_EQ(resumeLog.str().find("(resumed)"), std::string::npos)
        << resumeLog.str();
}

} // namespace
} // namespace stashsim
