/**
 * @file
 * BenchArgs parsing tests, centered on the strict-number regression:
 * every numeric flag must reject non-numeric, trailing-garbage,
 * negative, and overflowing values with a diagnostic naming both the
 * flag and the offending text (strtoul silently produced 0 before).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/bench_args.hh"

namespace stashsim
{
namespace
{

bool
parse(std::vector<std::string> words, BenchArgs &out, std::string &err)
{
    words.insert(words.begin(), "stashbench");
    std::vector<char *> argv;
    argv.reserve(words.size());
    for (auto &w : words)
        argv.push_back(w.data());
    return BenchArgs::parse(int(argv.size()), argv.data(), out, err);
}

TEST(BenchArgsTest, GoodNumbersParse)
{
    BenchArgs a;
    std::string err;
    ASSERT_TRUE(parse({"--jobs", "8", "--lease-ttl", "90",
                       "--max-attempts", "2"},
                      a, err))
        << err;
    EXPECT_EQ(a.jobs, 8u);
    EXPECT_EQ(a.leaseTtlSec, 90u);
    EXPECT_EQ(a.maxAttempts, 2u);
}

struct BadNumberCase
{
    const char *label;
    const char *flag;
    const char *value;
};

/** Prints the case label: the default dumps the pointer bytes into
 *  every test name, and those change with each build. */
void
PrintTo(const BadNumberCase &c, std::ostream *os)
{
    *os << c.label;
}

class BadNumbers : public ::testing::TestWithParam<BadNumberCase>
{
};

TEST_P(BadNumbers, RejectedNamingFlagAndValue)
{
    const auto &[label, flag, value] = GetParam();
    BenchArgs a;
    std::string err;
    EXPECT_FALSE(parse({flag, value}, a, err));
    // The diagnostic names the flag...
    EXPECT_NE(err.find(flag), std::string::npos) << err;
    // ...and (except for empty input) echoes the offending text.
    if (*value)
        EXPECT_NE(err.find(value), std::string::npos) << err;
}

const BadNumberCase badNumberCases[] = {
    {"JobsAlpha", "--jobs", "many"},
    {"JobsHexRejected", "--jobs", "0x10"},
    {"LeaseTtlTrailing", "--lease-ttl", "30s"},
    {"MaxAttemptsAlpha", "--max-attempts", "lots"},
};

INSTANTIATE_TEST_SUITE_P(Sweep, BadNumbers,
                         ::testing::ValuesIn(badNumberCases),
                         [](const auto &info) {
                             return std::string(info.param.label);
                         });

TEST(BenchArgsTest, ZeroStillRejectedWhereMeaningless)
{
    BenchArgs a;
    std::string err;
    EXPECT_FALSE(parse({"--lease-ttl", "0"}, a, err));
    EXPECT_NE(err.find("--lease-ttl"), std::string::npos) << err;
    EXPECT_FALSE(parse({"--max-attempts", "0"}, a, err));
    EXPECT_NE(err.find("--max-attempts"), std::string::npos) << err;
}

TEST(BenchArgsTest, TraceFlagsParse)
{
    BenchArgs a;
    std::string err;
    ASSERT_TRUE(parse({"--trace-replay", "in.trace", "--trace-record",
                       "out.trace", "--trace-from", "SynthMix"},
                      a, err))
        << err;
    EXPECT_EQ(a.traceReplay, "in.trace");
    EXPECT_EQ(a.traceRecord, "out.trace");
    EXPECT_EQ(a.traceFrom, "SynthMix");
}

TEST(BenchArgsTest, TraceFlagsRequireValues)
{
    BenchArgs a;
    std::string err;
    EXPECT_FALSE(parse({"--trace-replay"}, a, err));
    EXPECT_NE(err.find("--trace-replay"), std::string::npos) << err;
}

TEST(BenchArgsTest, UnknownFlagStillRejected)
{
    BenchArgs a;
    std::string err;
    EXPECT_FALSE(parse({"--frobnicate"}, a, err));
    EXPECT_NE(err.find("--frobnicate"), std::string::npos) << err;
    EXPECT_FALSE(parse({"--checkpoint-every", "1"}, a, err));
    EXPECT_EQ(err, "unknown option: --checkpoint-every");
}

} // namespace
} // namespace stashsim
