#include <gtest/gtest.h>

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
    // A farm lease of 200,000 '[' is a parse error, not a stack overflow.
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

} // namespace
} // namespace report
} // namespace stashsim
