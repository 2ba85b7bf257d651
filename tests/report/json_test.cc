#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "report/json.hh"

namespace stashsim
{
namespace report
{
namespace
{

TEST(JsonValueTest, BuildsAndSerializesDeterministically)
{
    JsonValue doc = JsonValue::object();
    doc["name"] = "fig5";
    doc["count"] = 3;
    doc["ratio"] = 0.5;
    doc["flag"] = true;
    JsonValue arr = JsonValue::array();
    arr.push(1);
    arr.push("two");
    doc["items"] = std::move(arr);

    const std::string text = doc.dump();
    // Keys serialize in insertion order.
    EXPECT_LT(text.find("\"name\""), text.find("\"count\""));
    EXPECT_LT(text.find("\"count\""), text.find("\"ratio\""));
    EXPECT_LT(text.find("\"ratio\""), text.find("\"items\""));
    EXPECT_NE(text.find("\"flag\": true"), std::string::npos);
    // Identical trees serialize to identical bytes.
    EXPECT_EQ(text, doc.dump());
}

TEST(JsonValueTest, IntegersSerializeWithoutDecimalPoint)
{
    EXPECT_EQ(jsonNumberToString(3), "3");
    EXPECT_EQ(jsonNumberToString(123456789.0), "123456789");
    EXPECT_EQ(jsonNumberToString(0), "0");
    // Fractions keep their precision.
    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(jsonNumberToString(0.25), v, err));
    EXPECT_DOUBLE_EQ(v.asNumber(), 0.25);
}

TEST(JsonValueTest, ParseRoundTripsSerializedTree)
{
    JsonValue doc = JsonValue::object();
    doc["schema"] = "stashsim-bench-v1";
    doc["nested"] = JsonValue::object();
    doc["nested"]["esc"] = "line\n\"quote\"\t\\slash";
    doc["nested"]["neg"] = -42;
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue());
    arr.push(false);
    doc["arr"] = std::move(arr);

    JsonValue back;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(doc.dump(), back, err)) << err;
    EXPECT_EQ(back.dump(), doc.dump());
    EXPECT_EQ(back.find("nested")->find("esc")->asString(),
              "line\n\"quote\"\t\\slash");
    EXPECT_EQ(back.find("arr")->at(0).kind(), JsonValue::Kind::Null);
    EXPECT_FALSE(back.find("arr")->at(1).asBool());
}

TEST(JsonValueTest, ParseHandlesUnicodeEscapes)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(
        JsonValue::parse("{\"s\": \"a\\u0041\\u00e9\"}", v, err))
        << err;
    EXPECT_EQ(v.find("s")->asString(), "aA\xc3\xa9");
}

TEST(JsonValueTest, ParseRejectsMalformedInput)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(JsonValue::parse("{", v, err));
    EXPECT_FALSE(JsonValue::parse("{\"a\": }", v, err));
    EXPECT_FALSE(JsonValue::parse("[1, 2,]", v, err));
    EXPECT_FALSE(JsonValue::parse("\"unterminated", v, err));
    EXPECT_FALSE(JsonValue::parse("{} trailing", v, err));
    EXPECT_FALSE(err.empty());
}

TEST(JsonValueTest, ParseRejectsDeepNesting)
{
    JsonValue v;
    std::string err;
    // A BENCH_*.json of 200,000 '[' is a parse error, not a stack
    // overflow.
    EXPECT_FALSE(JsonValue::parse(std::string(200000, '['), v, err));
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;

    // The bound itself is accepted, one level more is not, for arrays
    // and objects alike.
    const unsigned max = JsonValue::maxParseDepth;
    const std::string atMax =
        std::string(max, '[') + std::string(max, ']');
    EXPECT_TRUE(JsonValue::parse(atMax, v, err)) << err;
    const std::string beyond = "[" + atMax + "]";
    EXPECT_FALSE(JsonValue::parse(beyond, v, err));

    std::string objects;
    for (unsigned i = 0; i <= max; ++i)
        objects += "{\"k\": ";
    objects += "1" + std::string(max + 1, '}');
    EXPECT_FALSE(JsonValue::parse(objects, v, err));
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;
}

TEST(JsonValueTest, FindOnNonObjectReturnsNull)
{
    JsonValue arr = JsonValue::array();
    EXPECT_EQ(arr.find("x"), nullptr);
    JsonValue num(1.0);
    EXPECT_EQ(num.find("x"), nullptr);
}

/**
 * Valid documents in the shape of the artifacts --render-md reads
 * back: flat `"key": value` pairs whose only nested value is an array
 * of plain strings.
 */
const std::string validRun =
    "{\"schema\": \"stashsim-bench-v1\", \"bench\": \"fig5\", "
    "\"validated\": false, \"gpuCycles\": 5384, \"ratio\": 0.25, "
    "\"errors\": [\"cpu1: load @0x10000000 = 0x3, expected 0x4\", "
    "\"interrupted before completion\"]}";
const std::string validPerf =
    "{\"schema\": \"stashsim-simperf-v1\", \"events\": 20078839, "
    "\"hostSeconds\": 10.1, \"sweep.interrupted\": true, "
    "\"note\": \"a\\u00e9\\n\", \"benches\": [\"fig5\", \"fig6\"]}";

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
        const unsigned depth =
            JsonValue::maxParseDepth - 2 + unsigned(pick(5));
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

/**
 * Corrupt, truncated, spliced or absurdly nested documents make
 * JsonValue::parse return false with a message, or — for a mutant
 * that is still valid JSON — a tree whose dump() parses back to the
 * same text.  It never crashes, overflows the stack or hits undefined
 * behaviour, which the ASan/UBSan build of this test checks.
 */
TEST(JsonValueTest, SeededMutationsNeverCrashTheParser)
{
    for (const std::string &seed : {validRun, validPerf}) {
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(JsonValue::parse(seed, doc, err)) << err;
    }

    std::mt19937_64 rng(0x5eed'fa27);
    unsigned parsed = 0;
    for (int i = 0; i < 2000; ++i) {
        for (const bool run : {true, false}) {
            const std::string text = run
                                         ? mutate(rng, validRun, validPerf)
                                         : mutate(rng, validPerf, validRun);
            JsonValue doc;
            std::string err;
            if (!JsonValue::parse(text, doc, err)) {
                EXPECT_FALSE(err.empty()) << text;
                continue;
            }
            ++parsed;
            JsonValue again;
            ASSERT_TRUE(JsonValue::parse(doc.dump(), again, err))
                << err;
            EXPECT_EQ(again.dump(), doc.dump());
        }
    }
    // The mutants exercise both outcomes.
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, 4000u);
}

} // namespace
} // namespace report
} // namespace stashsim
