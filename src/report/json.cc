#include "report/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace stashsim
{
namespace report
{

JsonValue &
JsonValue::operator[](const std::string &key)
{
    _kind = Kind::Object;
    for (auto &m : _members) {
        if (m.first == key)
            return m.second;
    }
    _members.emplace_back(key, JsonValue{});
    return _members.back().second;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (_kind != Kind::Object)
        return nullptr;
    for (const auto &m : _members) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

std::string
jsonNumberToString(double d)
{
    if (!std::isfinite(d))
        return "null"; // JSON has no inf/nan
    // Integers (the common case: counters) print without a decimal
    // point; everything else uses the shortest round-trippable form.
    if (d == std::floor(d) && std::fabs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", d);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    double back = std::strtod(buf, nullptr);
    if (back == d)
        return buf;
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
}

namespace
{

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\b':
            os << "\\b";
            break;
          case '\f':
            os << "\\f";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\r':
            os << "\\r";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << char(c);
            }
        }
    }
    os << '"';
}

void
writeIndent(std::ostream &os, int level)
{
    for (int i = 0; i < level; ++i)
        os << "  ";
}

} // namespace

void
JsonValue::write(std::ostream &os, int indent) const
{
    switch (_kind) {
      case Kind::Null:
        os << "null";
        break;
      case Kind::Bool:
        os << (_bool ? "true" : "false");
        break;
      case Kind::Number:
        os << jsonNumberToString(_num);
        break;
      case Kind::String:
        writeEscaped(os, _str);
        break;
      case Kind::Array:
        if (_items.empty()) {
            os << "[]";
            break;
        }
        os << "[\n";
        for (std::size_t i = 0; i < _items.size(); ++i) {
            writeIndent(os, indent + 1);
            _items[i].write(os, indent + 1);
            if (i + 1 < _items.size())
                os << ",";
            os << "\n";
        }
        writeIndent(os, indent);
        os << "]";
        break;
      case Kind::Object:
        if (_members.empty()) {
            os << "{}";
            break;
        }
        os << "{\n";
        for (std::size_t i = 0; i < _members.size(); ++i) {
            writeIndent(os, indent + 1);
            writeEscaped(os, _members[i].first);
            os << ": ";
            _members[i].second.write(os, indent + 1);
            if (i + 1 < _members.size())
                os << ",";
            os << "\n";
        }
        writeIndent(os, indent);
        os << "}";
        break;
    }
}

std::string
JsonValue::dump() const
{
    std::ostringstream os;
    write(os);
    return os.str();
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

namespace
{

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    unsigned depth = 0; //!< arrays/objects currently open
    std::string err;

    explicit Parser(const std::string &t) : text(t) {}

    bool
    fail(const std::string &why)
    {
        if (err.empty()) {
            err = why + " at offset " + std::to_string(pos);
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, JsonValue v, JsonValue &out)
    {
        std::size_t len = std::string(word).size();
        if (text.compare(pos, len, word) != 0)
            return fail("bad literal");
        pos += len;
        out = std::move(v);
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return fail("truncated escape");
            char e = text[pos++];
            switch (e) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= unsigned(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode (no surrogate-pair support; the
                // simulator never emits any).
                if (cp < 0x80) {
                    out += char(cp);
                } else if (cp < 0x800) {
                    out += char(0xc0 | (cp >> 6));
                    out += char(0x80 | (cp & 0x3f));
                } else {
                    out += char(0xe0 | (cp >> 12));
                    out += char(0x80 | ((cp >> 6) & 0x3f));
                    out += char(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos; // closing quote
        return true;
    }

    /** The rest of an array, after its '['. */
    bool
    parseArray(JsonValue &out)
    {
        out = JsonValue::array();
        skipWs();
        if (consume(']'))
            return true;
        while (true) {
            JsonValue item;
            if (!parseValue(item))
                return false;
            out.push(std::move(item));
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']'");
        }
    }

    /** The rest of an object, after its '{'. */
    bool
    parseObject(JsonValue &out)
    {
        out = JsonValue::object();
        skipWs();
        if (consume('}'))
            return true;
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue member;
            if (!parseValue(member))
                return false;
            out[key] = std::move(member);
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseValue(JsonValue &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == 'n')
            return literal("null", JsonValue{}, out);
        if (c == 't')
            return literal("true", JsonValue{true}, out);
        if (c == 'f')
            return literal("false", JsonValue{false}, out);
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = JsonValue{std::move(s)};
            return true;
        }
        if (c == '[' || c == '{') {
            if (depth == JsonValue::maxParseDepth) {
                return fail("nesting deeper than " +
                            std::to_string(JsonValue::maxParseDepth) +
                            " levels");
            }
            ++pos;
            ++depth;
            const bool ok = c == '[' ? parseArray(out) : parseObject(out);
            --depth;
            return ok;
        }
        // Number.
        std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '-' ||
                text[pos] == '+')) {
            ++pos;
        }
        if (pos == start)
            return fail("unexpected character");
        try {
            out = JsonValue{
                std::stod(text.substr(start, pos - start))};
        } catch (const std::exception &) {
            return fail("bad number");
        }
        return true;
    }
};

} // namespace

bool
JsonValue::parse(const std::string &text, JsonValue &out,
                 std::string &err)
{
    Parser p(text);
    if (!p.parseValue(out)) {
        err = p.err;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        err = "trailing data at offset " + std::to_string(p.pos);
        return false;
    }
    return true;
}

} // namespace report
} // namespace stashsim
