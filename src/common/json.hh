/**
 * @file
 * Minimal JSON value tree: build, serialize, and parse.
 *
 * This is the machine-readable half of the instrumentation layer: stat
 * snapshots and bench sweeps serialize through it, and
 * `scripts/bench_diff.py` consumes the output. Objects preserve
 * insertion order so dumps are deterministic and diffable. Integers up
 * to 64 bits round-trip exactly (counters are never forced through a
 * double).
 */

#ifndef RBSIM_COMMON_JSON_HH
#define RBSIM_COMMON_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rbsim
{

/** Thrown by Json::parse on malformed input. */
class JsonError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One JSON value (recursively, a whole document). */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Json() = default;
    Json(bool v) : ty(Type::Bool), boolean(v) {}
    Json(double v) : ty(Type::Number), num(v) {}
    Json(std::uint64_t v)
        : ty(Type::Number), num(static_cast<double>(v)), unum(v),
          integral(true)
    {}
    Json(int v)
    {
        // Negative integers travel as doubles ("%g" still renders "-5");
        // the integral path exists for exact 64-bit counters.
        if (v >= 0)
            *this = Json(static_cast<std::uint64_t>(v));
        else
            *this = Json(static_cast<double>(v));
    }
    Json(unsigned v) : Json(static_cast<std::uint64_t>(v)) {}
    Json(std::string v) : ty(Type::String), str(std::move(v)) {}
    Json(const char *v) : Json(std::string(v)) {}

    /** An empty object / array (distinct from null). */
    static Json object();
    static Json array();

    Type type() const { return ty; }
    bool isNull() const { return ty == Type::Null; }
    bool isBool() const { return ty == Type::Bool; }
    bool isNumber() const { return ty == Type::Number; }
    bool isString() const { return ty == Type::String; }
    bool isObject() const { return ty == Type::Object; }
    bool isArray() const { return ty == Type::Array; }

    /** True when the number was built from (or parsed as) an integer. */
    bool isIntegral() const { return ty == Type::Number && integral; }

    bool asBool() const;
    double asDouble() const;
    std::uint64_t asU64() const;
    const std::string &asString() const;

    /** Object member access, inserting a null on first use. */
    Json &operator[](const std::string &key);

    /** Object member lookup; nullptr when absent (or not an object). */
    const Json *find(const std::string &key) const;

    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, Json>> &items() const
    { return obj; }

    /** Append to an array. */
    void push(Json v);

    /** Array elements. */
    const std::vector<Json> &elements() const { return arr; }

    std::size_t size() const;

    /**
     * Serialize. indent == 0 renders compact one-line JSON; indent > 0
     * pretty-prints with that many spaces per level.
     */
    std::string dump(unsigned indent = 0) const;

    /** Parse a document. Throws JsonError on malformed input, an
     * object that names a key twice included. */
    static Json parse(const std::string &text);

  private:
    void dumpTo(std::string &out, unsigned indent, unsigned depth) const;

    Type ty = Type::Null;
    bool boolean = false;
    double num = 0.0;
    std::uint64_t unum = 0;
    bool integral = false;
    std::string str;
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> obj;
};

/** Checked readers for one field of a decoded document: each throws
 * std::invalid_argument naming `key` when `v` is not of its kind. */
std::string asStringField(const Json &v, std::string_view key);
bool asBoolField(const Json &v, std::string_view key);

/** A non-negative integer, not in a fractional or exponent form (8.0,
 * 1e3); asSizeField's also fits an `unsigned`, so none is truncated. */
std::uint64_t asU64Field(const Json &v, std::string_view key);
unsigned asSizeField(const Json &v, std::string_view key);

} // namespace rbsim

#endif // RBSIM_COMMON_JSON_HH
