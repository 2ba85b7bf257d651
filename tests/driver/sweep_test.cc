#include <gtest/gtest.h>

#include <sstream>

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
    EXPECT_EQ(SweepDriver({1, nullptr}).threadsFor(8), 1u);
    EXPECT_EQ(SweepDriver({4, nullptr}).threadsFor(2), 2u);
    EXPECT_EQ(SweepDriver({4, nullptr}).threadsFor(0), 1u);
    EXPECT_GE(SweepDriver({0, nullptr}).threadsFor(8), 1u);
}

TEST(SweepDriverTest, ReturnsRecordsInSpecOrder)
{
    const std::vector<RunSpec> specs = smallGrid();
    const std::vector<RunRecord> records =
        SweepDriver({2, nullptr}).run(specs);
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
        SweepDriver({1, nullptr}).run(smallGrid());
    const std::vector<RunRecord> parallel =
        SweepDriver({4, nullptr}).run(smallGrid());
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
        SweepDriver({2, nullptr}).run(specs);
    ASSERT_EQ(records.size(), specs.size());
    EXPECT_FALSE(records[1].result.validated);
    ASSERT_FALSE(records[1].result.errors.empty());
    EXPECT_NE(records[1].result.errors[0].find("unknown workload"),
              std::string::npos);
    // Neighbors still ran to completion.
    EXPECT_TRUE(records[0].result.validated);
    EXPECT_TRUE(records[2].result.validated);
}

TEST(SweepDriverTest, CapturesNonStandardExceptionsToo)
{
    std::vector<RunSpec> specs = smallGrid();
    specs.resize(3);
    specs[1].instrument = [](System &) { throw 42; };

    const std::vector<RunRecord> records =
        SweepDriver({2, nullptr}).run(specs);
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
    SweepDriver({1, &progress}).run(specs);
    const std::string text = progress.str();
    EXPECT_NE(text.find("[1/2]"), std::string::npos);
    EXPECT_NE(text.find("[2/2]"), std::string::npos);
    EXPECT_NE(text.find("Implicit/Scratch ok"), std::string::npos);
}

} // namespace
} // namespace stashsim
