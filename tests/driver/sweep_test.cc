#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "driver/sweep.hh"

namespace stashsim
{
namespace
{

std::vector<RunSpec>
smallGrid()
{
    std::vector<RunSpec> specs;
    for (const char *name : {"Implicit", "On-demand"}) {
        for (MemOrg org :
             {MemOrg::Scratch, MemOrg::Cache, MemOrg::Stash}) {
            RunSpec spec;
            spec.workload = name;
            spec.org = org;
            spec.scale = workloads::Scale::Smoke;
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

/** Every counter of every run, serialized to one comparable string. */
std::string
serializeRecords(const std::vector<RunRecord> &records)
{
    std::ostringstream os;
    for (const RunRecord &rec : records) {
        os << rec.spec.label() << " validated=" << rec.result.validated
           << " gpuCycles=" << rec.result.gpuCycles
           << " energy=" << rec.result.energy.total() << "\n";
        for (const auto &[key, value] : rec.result.stats.flatten())
            os << "  " << key << "=" << value << "\n";
    }
    return os.str();
}

TEST(SweepDriverTest, ThreadsForClampsToWorkAndHardware)
{
    EXPECT_EQ(SweepDriver({1, nullptr, {}, nullptr}).threadsFor(8), 1u);
    EXPECT_EQ(SweepDriver({4, nullptr, {}, nullptr}).threadsFor(2), 2u);
    EXPECT_EQ(SweepDriver({4, nullptr, {}, nullptr}).threadsFor(0), 1u);
    EXPECT_GE(SweepDriver({0, nullptr, {}, nullptr}).threadsFor(8), 1u);
}

TEST(SweepDriverTest, ReturnsRecordsInSpecOrder)
{
    const std::vector<RunSpec> specs = smallGrid();
    const std::vector<RunRecord> records =
        SweepDriver({2, nullptr, {}, nullptr}).run(specs);
    ASSERT_EQ(records.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(records[i].spec.label(), specs[i].label());
}

/**
 * The determinism contract: a 4-thread sweep must produce results
 * byte-identical to a serial sweep, counter for counter.
 */
TEST(SweepDriverTest, ParallelSweepMatchesSerialByteForByte)
{
    const std::vector<RunRecord> serial =
        SweepDriver({1, nullptr, {}, nullptr}).run(smallGrid());
    const std::vector<RunRecord> parallel =
        SweepDriver({4, nullptr, {}, nullptr}).run(smallGrid());
    for (const RunRecord &rec : serial)
        ASSERT_TRUE(rec.result.validated) << rec.spec.label();
    EXPECT_EQ(serializeRecords(serial), serializeRecords(parallel));
}

TEST(SweepDriverTest, CapturesFailuresWithoutAbortingTheSweep)
{
    std::vector<RunSpec> specs = smallGrid();
    RunSpec bad;
    bad.workload = "no-such-workload"; // fatal() inside the run
    specs.insert(specs.begin() + 1, bad);

    const std::vector<RunRecord> records =
        SweepDriver({2, nullptr, {}, nullptr}).run(specs);
    ASSERT_EQ(records.size(), specs.size());
    EXPECT_FALSE(records[1].result.validated);
    ASSERT_FALSE(records[1].result.errors.empty());
    EXPECT_NE(records[1].result.errors[0].find("unknown workload"),
              std::string::npos);
    // Neighbors still ran to completion.
    EXPECT_TRUE(records[0].result.validated);
    EXPECT_TRUE(records[2].result.validated);

    // With a state directory the failed run caches nothing, so every
    // later sweep over it simulates the spec again (and fails again)
    // while its neighbors are served from the cache.
    namespace fs = std::filesystem;
    const std::string dir = ::testing::TempDir() + "sweep_failure_state";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::atomic<int> attempts{0};
    RunSpec thrower = specs[0];
    thrower.labelOverride = "thrower";
    thrower.make = [&attempts](const workloads::WorkloadParams &)
        -> Workload {
        attempts.fetch_add(1, std::memory_order_relaxed);
        throw std::runtime_error("injected workload failure");
    };
    const std::vector<RunSpec> stateful = {specs[0], thrower, specs[2]};
    SweepOptions opts;
    opts.threads = 2;
    opts.stateDir = dir;
    for (int pass = 1; pass <= 2; ++pass) {
        SweepCounters counters;
        const std::vector<RunRecord> recs =
            SweepDriver(opts).run(stateful, &counters);
        ASSERT_EQ(recs.size(), 3u);
        EXPECT_FALSE(recs[1].result.validated);
        ASSERT_EQ(recs[1].result.errors.size(), 1u);
        EXPECT_EQ(recs[1].result.errors[0], "injected workload failure");
        EXPECT_TRUE(recs[0].result.validated);
        EXPECT_TRUE(recs[2].result.validated);
        EXPECT_EQ(attempts.load(), pass);
        EXPECT_EQ(counters.cachedRuns, pass == 1 ? 0u : 2u);
        // Only the two neighbors' results are on disk.
        EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                                fs::directory_iterator()),
                  2);
        EXPECT_FALSE(fs::exists(dir + "/RESULT_thrower-smoke.snap"));
    }
}

TEST(SweepDriverTest, CapturesNonStandardExceptionsToo)
{
    std::vector<RunSpec> specs = smallGrid();
    specs.resize(3);
    specs[1].instrument = [](System &) { throw 42; };

    const std::vector<RunRecord> records =
        SweepDriver({2, nullptr, {}, nullptr}).run(specs);
    ASSERT_EQ(records.size(), specs.size());
    EXPECT_FALSE(records[1].result.validated);
    ASSERT_FALSE(records[1].result.errors.empty());
    EXPECT_NE(records[1].result.errors[0].find("unknown error"),
              std::string::npos);
    EXPECT_TRUE(records[0].result.validated);
    EXPECT_TRUE(records[2].result.validated);
}

TEST(SweepDriverTest, ProgressStreamReportsEveryRun)
{
    std::ostringstream progress;
    std::vector<RunSpec> specs = smallGrid();
    specs.resize(2);
    SweepDriver({1, &progress, {}, nullptr}).run(specs);
    const std::string text = progress.str();
    EXPECT_NE(text.find("[1/2]"), std::string::npos);
    EXPECT_NE(text.find("[2/2]"), std::string::npos);
    EXPECT_NE(text.find("Implicit/Scratch ok"), std::string::npos);
}

/**
 * A stop request that lands before the sweep starts leaves every spec
 * unrun, and no unrun record may read as a pass.
 */
TEST(SweepDriverTest, StoppedSweepMarksUnrunSpecsInterrupted)
{
    std::vector<RunSpec> specs;
    for (MemOrg org : {MemOrg::Scratch, MemOrg::Cache, MemOrg::Stash}) {
        RunSpec spec;
        spec.workload = "Reuse";
        spec.org = org;
        spec.scale = workloads::Scale::Smoke;
        specs.push_back(std::move(spec));
    }
    const std::atomic<bool> stop{true};
    SweepOptions opts;
    opts.threads = 2;
    opts.stop = &stop;
    SweepCounters counters;
    const std::vector<RunRecord> records =
        SweepDriver(opts).run(specs, &counters);
    EXPECT_TRUE(counters.interrupted);
    ASSERT_EQ(records.size(), specs.size());
    for (const RunRecord &rec : records) {
        EXPECT_FALSE(rec.result.validated) << rec.spec.label();
        ASSERT_EQ(rec.result.errors.size(), 1u) << rec.spec.label();
        EXPECT_EQ(rec.result.errors[0], "interrupted before completion");
    }
}

} // namespace
} // namespace stashsim
