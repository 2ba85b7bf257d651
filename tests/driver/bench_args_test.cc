/**
 * @file
 * BenchArgs parsing tests, centered on the strict-number regression:
 * every numeric flag must reject non-numeric, trailing-garbage,
 * negative, and overflowing values with a diagnostic naming both the
 * flag and the offending text (strtoul silently produced 0 before).
 * A seeded argv mutation test checks that every vector either parses
 * as an independent model of the grammar says or fails with an error.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
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
    ASSERT_TRUE(parse({"--jobs", "8"}, a, err)) << err;
    EXPECT_EQ(a.jobs, 8u);
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
    if (*value) {
        EXPECT_NE(err.find(value), std::string::npos) << err;
    }
}

const BadNumberCase badNumberCases[] = {
    {"JobsAlpha", "--jobs", "many"},
    {"JobsHexRejected", "--jobs", "0x10"},
};

INSTANTIATE_TEST_SUITE_P(Sweep, BadNumbers,
                         ::testing::ValuesIn(badNumberCases),
                         [](const auto &info) {
                             return std::string(info.param.label);
                         });

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
    // Flags of deleted mechanisms are unknown, not silently ignored.
    for (const std::string flag :
         {"--checkpoint-every", "--farm", "--worker-id", "--lease-ttl",
          "--max-attempts", "--list-workloads"}) {
        EXPECT_FALSE(parse({flag, "1"}, a, err)) << flag;
        EXPECT_EQ(err, "unknown option: " + flag);
    }
}

/** A flag parse() knows, and whether it consumes the next word. */
struct KnownFlag
{
    const char *name;
    bool takesValue;
};

const KnownFlag knownFlags[] = {
    {"--quick", false},       {"--smoke", false},
    {"--scale", true},        {"--jobs", true},
    {"-j", true},             {"--backend", true},
    {"--out", true},          {"--trace", true},
    {"--render-md", true},    {"--components", false},
    {"--restore", true},      {"--trace-replay", true},
    {"--trace-record", true}, {"--trace-from", true},
    {"--json", false},        {"--list", false},
    {"--help", false},        {"-h", false},
};

const KnownFlag *
findFlag(const char *word)
{
    for (const KnownFlag &f : knownFlags)
        if (std::strcmp(f.name, word) == 0)
            return &f;
    return nullptr;
}

/**
 * An independent model of parse()'s grammar: false where parse() must
 * fail; otherwise the --jobs value and the bench names it must give.
 * Words are read as C strings, as argv delivers them.
 */
bool
modelParse(const std::vector<std::string> &words, unsigned &jobs,
           std::vector<std::string> &benches)
{
    for (std::size_t i = 0; i < words.size(); ++i) {
        const char *w = words[i].c_str();
        const KnownFlag *f = findFlag(w);
        if (!f) {
            if (w[0] == '-')
                return false;
            benches.push_back(w);
            continue;
        }
        if (!f->takesValue)
            continue;
        if (i + 1 == words.size())
            return false;
        const std::string v = words[++i].c_str();
        if (std::strcmp(w, "--scale") == 0 && v != "full" &&
            v != "quick" && v != "smoke")
            return false;
        if (std::strcmp(w, "--jobs") == 0 || std::strcmp(w, "-j") == 0) {
            if (v.empty())
                return false;
            std::uint64_t n = 0;
            for (const char c : v) {
                if (c < '0' || c > '9')
                    return false;
                n = n * 10 + std::uint64_t(c - '0');
                if (n > 0xffff'ffffull)
                    return false;
            }
            jobs = unsigned(n);
        }
    }
    return true;
}

/** Values a mutant may hand a flag: hostile numbers, odd strings. */
const char *const hostileValues[] = {
    "",     "-1",   "0",    "4294967295", "4294967296",
    "18446744073709551616", "99999999999999999999999",
    "0x10", "1e3",  "+1",   " 1",   "1 ",   "3x",   "-",
    "--",   "full", "smoke", "fig5", "\xff\xfe",
};

/**
 * Seeded argv mutants of valid command lines: flags spliced across
 * vectors, vectors truncated (leaving a flag without its value),
 * words duplicated or dropped, flags spliced in without their value,
 * values replaced by hostile numbers and strings, and bit flips
 * inside a word.  Each must either parse exactly as modelParse() says
 * or fail with a non-empty diagnostic; the ASan/UBSan build checks it
 * never reads out of bounds.
 */
TEST(BenchArgsTest, SeededArgvMutationsParseOrFailWithAnError)
{
    const std::vector<std::vector<std::string>> seeds = {
        {"--quick", "--jobs", "4", "--out", "out", "fig5", "fig6"},
        {"--scale", "smoke", "-j", "2", "--restore", "state",
         "--backend", "sttmram", "synth"},
        {"--trace-replay", "in.trace", "--trace-record", "out.trace"},
        {"--list", "--json"},
        {"--render-md", "-", "--out", "dir", "--components", "--trace",
         "traces", "--smoke"},
    };
    std::mt19937_64 rng(0xa59'0f00d);
    const auto pick = [&rng](std::size_t n) {
        return std::size_t(rng() % n);
    };
    unsigned accepted = 0, rejected = 0;
    for (int round = 0; round < 20000; ++round) {
        std::vector<std::string> w = seeds[pick(seeds.size())];
        for (std::size_t m = 1 + pick(3); m > 0; --m) {
            const std::size_t at = pick(w.size() + 1);
            switch (pick(7)) {
              case 0: { // splice: a prefix of w, a suffix of another
                const auto &o = seeds[pick(seeds.size())];
                w.resize(at);
                w.insert(w.end(), o.begin() + pick(o.size() + 1),
                         o.end());
                break;
              }
              case 1: // truncation
                w.resize(at);
                break;
              case 2: // duplicate a word
                if (!w.empty()) {
                    const std::string dup = w[pick(w.size())];
                    w.insert(w.begin() + at, dup);
                }
                break;
              case 3: // drop a word
                if (at < w.size())
                    w.erase(w.begin() + at);
                break;
              case 4: // a flag spliced in without its value
                w.insert(w.begin() + at,
                         knownFlags[pick(std::size(knownFlags))].name);
                break;
              case 5: { // a hostile value, replacing or after a flag
                const char *v =
                    hostileValues[pick(std::size(hostileValues))];
                if (at < w.size() && pick(2) == 0) {
                    w[at] = v;
                } else {
                    const char *numeric = pick(2) ? "--jobs" : "-j";
                    w.insert(w.begin() + at, {numeric, v});
                }
                break;
              }
              case 6: // bit flips inside a word
                if (at < w.size() && !w[at].empty()) {
                    std::string &s = w[at];
                    s[pick(s.size())] ^= char(1u << pick(8));
                }
                break;
            }
        }

        BenchArgs a;
        std::string err;
        unsigned jobs = a.jobs;
        std::vector<std::string> benches;
        const bool want = modelParse(w, jobs, benches);
        std::string shown;
        for (const std::string &word : w)
            shown += " [" + word + "]";
        if (parse(w, a, err)) {
            ++accepted;
            EXPECT_TRUE(want) << shown;
            EXPECT_EQ(a.jobs, jobs) << shown;
            EXPECT_EQ(a.benches, benches) << shown;
        } else {
            ++rejected;
            EXPECT_FALSE(want) << shown;
            EXPECT_FALSE(err.empty()) << shown;
        }
    }
    // The mutants exercise both outcomes.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
}

} // namespace
} // namespace stashsim
