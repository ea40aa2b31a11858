#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace rbsim
{

Json
Json::object()
{
    Json j;
    j.ty = Type::Object;
    return j;
}

Json
Json::array()
{
    Json j;
    j.ty = Type::Array;
    return j;
}

bool
Json::asBool() const
{
    if (ty != Type::Bool)
        throw JsonError("not a bool");
    return boolean;
}

double
Json::asDouble() const
{
    if (ty != Type::Number)
        throw JsonError("not a number");
    return integral ? static_cast<double>(unum) : num;
}

std::uint64_t
Json::asU64() const
{
    if (ty != Type::Number)
        throw JsonError("not a number");
    if (integral)
        return unum;
    // Casting 2^64 or more to std::uint64_t is undefined behavior.
    if (num < 0 || num != std::floor(num) || num >= 0x1p64)
        throw JsonError("not an unsigned integer");
    return static_cast<std::uint64_t>(num);
}

const std::string &
Json::asString() const
{
    if (ty != Type::String)
        throw JsonError("not a string");
    return str;
}

Json &
Json::operator[](const std::string &key)
{
    if (ty == Type::Null)
        ty = Type::Object;
    if (ty != Type::Object)
        throw JsonError("not an object");
    for (auto &[k, v] : obj) {
        if (k == key)
            return v;
    }
    obj.emplace_back(key, Json{});
    return obj.back().second;
}

const Json *
Json::find(const std::string &key) const
{
    if (ty != Type::Object)
        return nullptr;
    for (const auto &[k, v] : obj) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

void
Json::push(Json v)
{
    if (ty == Type::Null)
        ty = Type::Array;
    if (ty != Type::Array)
        throw JsonError("not an array");
    arr.push_back(std::move(v));
}

std::size_t
Json::size() const
{
    switch (ty) {
      case Type::Array:
        return arr.size();
      case Type::Object:
        return obj.size();
      default:
        return 0;
    }
}

namespace
{

void
escapeTo(std::string &out, const std::string &s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

void
newlineIndent(std::string &out, unsigned indent, unsigned depth)
{
    if (indent == 0)
        return;
    out += '\n';
    out.append(std::size_t{indent} * depth, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, unsigned indent, unsigned depth) const
{
    switch (ty) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += boolean ? "true" : "false";
        break;
      case Type::Number:
        if (integral) {
            out += std::to_string(unum);
        } else if (!std::isfinite(num)) {
            out += "null"; // JSON has no inf/nan
        } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", num);
            out += buf;
        }
        break;
      case Type::String:
        escapeTo(out, str);
        break;
      case Type::Array:
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i)
                out += ',';
            newlineIndent(out, indent, depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        if (!arr.empty())
            newlineIndent(out, indent, depth);
        out += ']';
        break;
      case Type::Object:
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i)
                out += ',';
            newlineIndent(out, indent, depth + 1);
            escapeTo(out, obj[i].first);
            out += indent ? ": " : ":";
            obj[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!obj.empty())
            newlineIndent(out, indent, depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(unsigned indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// ----------------------------------------------------------------- parse

namespace
{

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonError("json parse error at offset " +
                        std::to_string(pos) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos < text.size() && std::isspace(
                   static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    consumeWord(const char *w)
    {
        const std::size_t n = std::string(w).size();
        if (text.compare(pos, n, w) == 0) {
            pos += n;
            return true;
        }
        return false;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos >= text.size())
                fail("unterminated string");
            char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            c = text[pos++];
            switch (c) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  if (pos + 4 > text.size())
                      fail("truncated \\u escape");
                  const unsigned cp = static_cast<unsigned>(
                      std::strtoul(text.substr(pos, 4).c_str(), nullptr,
                                   16));
                  pos += 4;
                  // Basic-multilingual-plane code points only; enough
                  // for the escapes this library itself emits.
                  if (cp < 0x80) {
                      out += static_cast<char>(cp);
                  } else if (cp < 0x800) {
                      out += static_cast<char>(0xc0 | (cp >> 6));
                      out += static_cast<char>(0x80 | (cp & 0x3f));
                  } else {
                      out += static_cast<char>(0xe0 | (cp >> 12));
                      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                      out += static_cast<char>(0x80 | (cp & 0x3f));
                  }
                  break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos;
        const bool neg = peek() == '-';
        if (neg)
            ++pos;
        bool isInt = !neg;
        char prev = '\0';
        while (pos < text.size()) {
            const char c = text[pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' ||
                       ((c == '+' || c == '-') &&
                        (prev == 'e' || prev == 'E'))) {
                isInt = false;
                ++pos;
            } else {
                break;
            }
            prev = c;
        }
        const std::string tok = text.substr(start, pos - start);
        if (tok.empty() || tok == "-")
            fail("bad number");
        if (isInt && tok[0] != '-') {
            errno = 0;
            char *end = nullptr;
            const std::uint64_t u = std::strtoull(tok.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0')
                return Json(u);
        }
        return Json(std::strtod(tok.c_str(), nullptr));
    }

    Json
    parseValue()
    {
        skipWs();
        const char c = peek();
        if (c == '{') {
            ++pos;
            Json j = Json::object();
            skipWs();
            if (peek() == '}') {
                ++pos;
                return j;
            }
            for (;;) {
                skipWs();
                const std::string key = parseString();
                skipWs();
                expect(':');
                // operator[]'s key scan tells a new key from a repeat.
                const std::size_t members = j.size();
                Json &slot = j[key];
                if (j.size() == members)
                    fail("duplicate key \"" + key + "\"");
                slot = parseValue();
                skipWs();
                if (peek() == ',') {
                    ++pos;
                    continue;
                }
                expect('}');
                return j;
            }
        }
        if (c == '[') {
            ++pos;
            Json j = Json::array();
            skipWs();
            if (peek() == ']') {
                ++pos;
                return j;
            }
            for (;;) {
                j.push(parseValue());
                skipWs();
                if (peek() == ',') {
                    ++pos;
                    continue;
                }
                expect(']');
                return j;
            }
        }
        if (c == '"')
            return Json(parseString());
        if (consumeWord("true"))
            return Json(true);
        if (consumeWord("false"))
            return Json(false);
        if (consumeWord("null"))
            return Json();
        return parseNumber();
    }
};

} // namespace

Json
Json::parse(const std::string &text)
{
    Parser p{text};
    Json j = p.parseValue();
    p.skipWs();
    if (p.pos != text.size())
        p.fail("trailing content");
    return j;
}

// ------------------------------------------------------- checked readers

std::string
asStringField(const Json &v, std::string_view key)
{
    if (!v.isString())
        throw std::invalid_argument("\"" + std::string(key) +
                                    "\" must be a string");
    return v.asString();
}

bool
asBoolField(const Json &v, std::string_view key)
{
    if (!v.isBool())
        throw std::invalid_argument("\"" + std::string(key) +
                                    "\" must be a boolean");
    return v.asBool();
}

std::uint64_t
asU64Field(const Json &v, std::string_view key)
{
    if (!v.isIntegral())
        throw std::invalid_argument("\"" + std::string(key) +
                                    "\" must be a non-negative integer");
    return v.asU64();
}

unsigned
asSizeField(const Json &v, std::string_view key)
{
    const std::uint64_t n = asU64Field(v, key);
    if (n > std::numeric_limits<unsigned>::max())
        throw std::invalid_argument("\"" + std::string(key) +
                                    "\" must fit in 32 bits");
    return static_cast<unsigned>(n);
}

} // namespace rbsim
