/**
 * @file
 * Seeded mutation test for the farm's state files: lease and FAILED
 * documents that are corrupt, truncated, spliced or absurdly nested
 * must make JsonValue::parse, farm::readLease and farm::loadFailed
 * return false (or true, for a mutant that is still valid) — never
 * crash, overflow the stack, or hit undefined behaviour.  The ASan /
 * UBSan ctest leg is what turns "never" into a checked property.  A
 * mutant the farm accepts must carry exactly the values its JSON
 * holds, so a value that cannot be represented is caught even where
 * no sanitizer checks the cast.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "driver/farm.hh"
#include "report/json.hh"

namespace stashsim
{
namespace
{

namespace fs = std::filesystem;

/** Valid documents, in the form the farm itself writes them. */
const std::string validLease =
    "{\"schema\": \"stashsim-farm-lease-v1\", \"worker\": \"w1\", "
    "\"pid\": 4242, \"heartbeatMs\": 1760000000000, \"attempt\": 2, "
    "\"released\": false}";
const std::string validFailed =
    "{\"schema\": \"stashsim-farm-failed-v1\", \"label\": "
    "\"Reuse_Stash-smoke\", \"worker\": \"w1\", \"pid\": 4242, "
    "\"attempts\": 3, \"errors\": [\"injected workload failure\", "
    "\"attempt budget exhausted after 3 failed attempts\"]}";

/** Values a mutant may splice in: out-of-range and wrongly typed. */
const char *const hostileTokens[] = {
    "-1",   "1.5",  "4294967296", "18446744073709551616", "1e300",
    "1e400", "-0",  "null",       "true",                 "{}",
    "[]",   "\"\"", "{\"a\":\"b\"}", "[1,2]",            "\"\\u0000\"",
};

/**
 * One seeded mutant of @p base: bit flips, a truncation, a splice
 * with @p other or a hostile token (over a random span, or over one
 * field's whole value), or nesting inflation (balanced around the
 * parser's depth bound, or an unbalanced run of 200,000 openers).
 * @p base is one of the valid documents above: flat `"key": value`
 * pairs whose only nested value is the FAILED document's array of
 * plain strings.
 */
std::string
mutate(std::mt19937_64 &rng, const std::string &base,
       const std::string &other)
{
    const auto pick = [&rng](std::size_t n) {
        return std::size_t(rng() % n);
    };
    const char *hostile = hostileTokens[pick(std::size(hostileTokens))];
    std::string s = base;
    switch (pick(6)) {
      case 0: // bit flips
        for (std::size_t n = 1 + pick(4); n > 0; --n)
            s[pick(s.size())] ^= char(1u << pick(8));
        break;
      case 1: // truncation
        s.resize(pick(s.size() + 1));
        break;
      case 2: // splice: a prefix of one document, a suffix of the other
        s = base.substr(0, pick(base.size() + 1)) +
            other.substr(pick(other.size() + 1));
        break;
      case 3: { // splice a hostile token over a random span
        const std::size_t at = pick(s.size() + 1);
        const std::size_t len = pick(std::min<std::size_t>(
            8, s.size() - at + 1));
        s.replace(at, len, hostile);
        break;
      }
      case 4: { // splice a hostile token over one field's value
        std::vector<std::size_t> values;
        for (std::size_t p = s.find("\": "); p != std::string::npos;
             p = s.find("\": ", p + 1))
            values.push_back(p + 3);
        const std::size_t at = values[pick(values.size())];
        const std::size_t end = s[at] == '['
                                    ? s.find(']', at) + 1
                                    : s.find_first_of(",}", at);
        s.replace(at, end - at, hostile);
        break;
      }
      case 5: { // nesting inflation
        const bool array = pick(2) == 0;
        if (pick(4) == 0) {
            s.insert(pick(s.size() + 1),
                     std::string(200000, array ? '[' : '{'));
            break;
        }
        const unsigned depth = report::JsonValue::maxParseDepth - 2 +
                               unsigned(pick(5));
        std::string open, close;
        for (unsigned i = 0; i < depth; ++i) {
            open += array ? "[" : "{\"k\": ";
            close += array ? ']' : '}';
        }
        s = open + s + close;
        break;
      }
    }
    return s;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::trunc | std::ios::binary);
    os << content;
}

TEST(FarmFuzzTest, SeededMutationsNeverCrashTheParsers)
{
    const std::string dir = ::testing::TempDir() + "farm_fuzz";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string lease = farm::leasePath(dir, "spec");

    // The unmutated seeds are accepted.
    writeFile(lease, validLease);
    farm::Lease l;
    ASSERT_TRUE(farm::readLease(lease, l));
    EXPECT_EQ(l.attempt, 2u);
    writeFile(farm::failedPath(dir, "spec"), validFailed);
    unsigned attempts = 0;
    std::vector<std::string> errors;
    ASSERT_TRUE(farm::loadFailed(dir, "spec", attempts, errors));
    EXPECT_EQ(attempts, 3u);
    EXPECT_EQ(errors.size(), 2u);

    std::mt19937_64 rng(0x5eed'fa27);
    unsigned parsed = 0, leases = 0, failed = 0;
    for (int i = 0; i < 2000; ++i) {
        for (const bool isLease : {true, false}) {
            const std::string text =
                isLease ? mutate(rng, validLease, validFailed)
                        : mutate(rng, validFailed, validLease);

            // Whatever parses re-serializes to a fixed point.
            report::JsonValue doc;
            std::string err;
            const bool ok = report::JsonValue::parse(text, doc, err);
            if (ok) {
                ++parsed;
                report::JsonValue again;
                ASSERT_TRUE(
                    report::JsonValue::parse(doc.dump(), again, err))
                    << err;
                EXPECT_EQ(again.dump(), doc.dump());
            } else {
                EXPECT_FALSE(err.empty());
            }

            if (isLease) {
                writeFile(lease, text);
                farm::Lease out;
                if (!farm::readLease(lease, out))
                    continue;
                ++leases;
                ASSERT_TRUE(ok) << text;
                EXPECT_EQ(out.worker, doc.find("worker")->asString());
                EXPECT_EQ(double(out.attempt),
                          doc.find("attempt")->asNumber())
                    << text;
                EXPECT_EQ(double(out.heartbeatMs),
                          doc.find("heartbeatMs")->asNumber())
                    << text;
            } else {
                writeFile(farm::failedPath(dir, "spec"), text);
                if (!farm::loadFailed(dir, "spec", attempts, errors))
                    continue;
                ++failed;
                ASSERT_TRUE(ok) << text;
                const report::JsonValue *att = doc.find("attempts");
                const report::JsonValue *errs = doc.find("errors");
                ASSERT_TRUE(att && errs && errs->isArray()) << text;
                EXPECT_EQ(double(attempts), att->asNumber()) << text;
                ASSERT_EQ(errors.size(), errs->size()) << text;
                for (std::size_t e = 0; e < errors.size(); ++e)
                    EXPECT_EQ(errors[e], errs->at(e).asString());
            }
        }
    }
    // The mutants exercise both outcomes of every parser.
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, 4000u);
    EXPECT_GT(leases, 0u);
    EXPECT_LT(leases, 2000u);
    EXPECT_GT(failed, 0u);
    EXPECT_LT(failed, 2000u);
    fs::remove_all(dir);
}

} // namespace
} // namespace stashsim
