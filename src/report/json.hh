/**
 * @file
 * Minimal JSON document model for the report subsystem.
 *
 * The simulator's machine-readable artifacts (BENCH_*.json, Chrome
 * traces, stats dumps) are built as JsonValue trees and serialized
 * with stable formatting: object keys keep insertion order, so a
 * deterministic simulation produces byte-identical files.  A small
 * recursive-descent parser is included so tests (and the EXPERIMENTS
 * renderer) can read the artifacts back without external
 * dependencies.
 */

#ifndef STASHSIM_REPORT_JSON_HH
#define STASHSIM_REPORT_JSON_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace stashsim
{
namespace report
{

/**
 * One JSON value: null, bool, number, string, array, or object.
 */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    JsonValue() : _kind(Kind::Null) {}
    JsonValue(bool b) : _kind(Kind::Bool), _bool(b) {}
    JsonValue(double d) : _kind(Kind::Number), _num(d) {}
    JsonValue(int i) : _kind(Kind::Number), _num(i) {}
    JsonValue(unsigned u) : _kind(Kind::Number), _num(u) {}
    JsonValue(long long ll)
        : _kind(Kind::Number), _num(double(ll))
    {
    }
    JsonValue(unsigned long long ull)
        : _kind(Kind::Number), _num(double(ull))
    {
    }
    JsonValue(const char *s) : _kind(Kind::String), _str(s) {}
    JsonValue(std::string s) : _kind(Kind::String), _str(std::move(s))
    {
    }

    static JsonValue
    array()
    {
        JsonValue v;
        v._kind = Kind::Array;
        return v;
    }

    static JsonValue
    object()
    {
        JsonValue v;
        v._kind = Kind::Object;
        return v;
    }

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }
    bool isBool() const { return _kind == Kind::Bool; }
    bool isNumber() const { return _kind == Kind::Number; }
    bool isString() const { return _kind == Kind::String; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isObject() const { return _kind == Kind::Object; }

    bool asBool() const { return _bool; }
    double asNumber() const { return _num; }
    const std::string &asString() const { return _str; }

    /** Array elements / object entry count. */
    std::size_t
    size() const
    {
        return _kind == Kind::Object ? _members.size() : _items.size();
    }

    /** Appends to an array (converts a Null value to an array). */
    void
    push(JsonValue v)
    {
        _kind = Kind::Array;
        _items.push_back(std::move(v));
    }

    /** Array element access. */
    const JsonValue &at(std::size_t i) const { return _items[i]; }

    /**
     * Object member access; inserts a Null member (converting a Null
     * value to an object) when the key is absent.
     */
    JsonValue &operator[](const std::string &key);

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Object members, in insertion order. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return _members;
    }

    /**
     * Serializes with 2-space indentation per level; @p indent is the
     * starting level.  Deterministic: insertion order, fixed number
     * formatting.
     */
    void write(std::ostream &os, int indent = 0) const;

    /** write() into a string. */
    std::string dump() const;

    /**
     * Deepest array/object nesting parse() accepts.  The simulator's
     * own documents nest fewer than ten levels; the bound keeps a
     * hostile file (a BENCH_*.json of 200,000 '[' read back by
     * --render-md) from overflowing the recursive-descent parser's
     * stack.
     */
    static constexpr unsigned maxParseDepth = 256;

    /**
     * Parses @p text into @p out.
     * @return false (with a message in @p err) on malformed input,
     * including nesting deeper than maxParseDepth.
     */
    static bool parse(const std::string &text, JsonValue &out,
                      std::string &err);

  private:
    Kind _kind;
    bool _bool = false;
    double _num = 0;
    std::string _str;
    std::vector<JsonValue> _items;
    std::vector<std::pair<std::string, JsonValue>> _members;
};

/** Formats a number the way the serializer does (shortest lossless). */
std::string jsonNumberToString(double d);

} // namespace report
} // namespace stashsim

#endif // STASHSIM_REPORT_JSON_HH
