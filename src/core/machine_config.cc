#include "core/machine_config.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/bitutil.hh"

namespace rbsim
{

namespace
{

/** The one table of machine-kind names. */
constexpr struct
{
    MachineKind kind;
    const char *label; //!< as in the paper's figures
    const char *alias; //!< short command-line and wire form
} kindNames[] = {
    {MachineKind::Baseline, "Baseline", "base"},
    {MachineKind::RbLimited, "RB-limited", "rblim"},
    {MachineKind::RbFull, "RB-full", "rbfull"},
    {MachineKind::Ideal, "Ideal", "ideal"},
};

/** The one table of steering-policy names. */
constexpr struct
{
    Steering steering;
    const char *name;
} steeringNames[] = {
    {Steering::RoundRobinPairs, "rr-pairs"},
    {Steering::DependenceAware, "dep-aware"},
    {Steering::ClassPartition, "class-partition"},
};

} // namespace

const char *
machineName(MachineKind kind)
{
    for (const auto &k : kindNames) {
        if (k.kind == kind)
            return k.label;
    }
    return "<bad>";
}

const char *
machineAlias(MachineKind kind)
{
    for (const auto &k : kindNames) {
        if (k.kind == kind)
            return k.alias;
    }
    return "<bad>";
}

std::optional<MachineKind>
machineKindFromName(const std::string &name)
{
    for (const auto &k : kindNames) {
        if (name == k.label || name == k.alias)
            return k.kind;
    }
    return std::nullopt;
}

const char *
steeringName(Steering s)
{
    for (const auto &n : steeringNames) {
        if (n.steering == s)
            return n.name;
    }
    return "<bad>";
}

std::optional<Steering>
steeringFromName(const std::string &name)
{
    for (const auto &n : steeringNames) {
        if (name == n.name)
            return n.steering;
    }
    return std::nullopt;
}

namespace
{

/** Fill the Table 3 latency rows for one machine. */
void
fillLatencies(MachineConfig &cfg)
{
    auto set = [&cfg](OpClass cls, unsigned early, unsigned late) {
        cfg.latency[static_cast<unsigned>(cls)] = LatencyPair{early, late};
    };

    // Rows common to all machines.
    set(OpClass::IntLogical, 1, 1);
    set(OpClass::ShiftRight, 3, 3);
    set(OpClass::IntMul, 10, 10);
    set(OpClass::FpArith, 8, 8);
    set(OpClass::FpDiv, 32, 32);
    set(OpClass::Load, 1, 1);   // SAM decoder; dcache latency added on top
    set(OpClass::Store, 1, 1);
    set(OpClass::Nop, 1, 1);

    switch (cfg.kind) {
      case MachineKind::Baseline:
        set(OpClass::IntArith, 2, 2);
        set(OpClass::CondMove, 2, 2);
        set(OpClass::IntCompare, 2, 2);
        set(OpClass::ByteManip, 2, 2);
        set(OpClass::Count, 2, 2);
        set(OpClass::ShiftLeft, 3, 3);
        set(OpClass::Branch, 2, 2);
        cfg.storeCompleteLat = 1;
        break;
      case MachineKind::RbLimited:
      case MachineKind::RbFull:
        set(OpClass::IntArith, 1, 3);
        set(OpClass::CondMove, 1, 3);
        set(OpClass::IntCompare, 1, 3);
        set(OpClass::ByteManip, 1, 3);
        set(OpClass::Count, 1, 3);
        set(OpClass::ShiftLeft, 3, 5);
        set(OpClass::Branch, 1, 1);
        cfg.storeCompleteLat = 3; // store data needs the TC conversion
        break;
      case MachineKind::Ideal:
        set(OpClass::IntArith, 1, 1);
        set(OpClass::CondMove, 1, 1);
        set(OpClass::IntCompare, 1, 1);
        set(OpClass::ByteManip, 1, 1);
        set(OpClass::Count, 1, 1);
        set(OpClass::ShiftLeft, 3, 3);
        set(OpClass::Branch, 1, 1);
        cfg.storeCompleteLat = 1;
        break;
    }
}

} // namespace

MachineConfig
MachineConfig::make(MachineKind kind, unsigned width)
{
    // 4 and 8 are the paper's machines; 16 is this reproduction's
    // scaling extension (4 clusters, scaled front end and window).
    if (width != 4 && width != 8 && width != 16)
        throw std::invalid_argument("\"width\" must be 4, 8, or 16");
    MachineConfig cfg;
    cfg.kind = kind;
    cfg.label = machineName(kind);
    cfg.width = width;
    cfg.numSchedulers = width / 2;
    cfg.schedEntries = (width == 16 ? 256 : 128) / cfg.numSchedulers;
    cfg.numClusters = width <= 4 ? 1 : width / 4;
    if (width == 16) {
        cfg.fetchWidth = 16;
        cfg.fetchBlocks = 3;
        cfg.renameWidth = 16;
        cfg.retireWidth = 16;
        cfg.robEntries = 256;
        cfg.lsqEntries = 128;
        cfg.physRegs = 640;
    }
    fillLatencies(cfg);
    return cfg;
}

MachineConfig
MachineConfig::makeIdealLimited(unsigned width, std::uint8_t level_mask)
{
    MachineConfig cfg = make(MachineKind::Ideal, width);
    assert((level_mask & ~0b111u) == 0);
    cfg.bypassLevelMask = level_mask;
    std::string missing;
    for (unsigned k = 1; k <= 3; ++k) {
        if (!(level_mask & (1u << (k - 1)))) {
            missing += missing.empty() ? "" : ",";
            missing += std::to_string(k);
        }
    }
    cfg.label = missing.empty() ? "Ideal (full)" : ("Ideal No-" + missing);
    return cfg;
}

// ------------------------------------------------------------ JSON codec

namespace
{

/** Throw unless `n` is in the range of field `f` of `object`. */
template <class S>
void
checkRange(std::uint64_t n, const Field<S> &f, std::string_view object)
{
    if (n >= f.lo && n <= f.hi && (!f.pow2 || isPow2(n)))
        return;
    throw std::invalid_argument(
        "\"" + (object.empty() ? "" : std::string(object) + ".") +
        std::string(f.key) + "\" must be " +
        (f.pow2 ? "a power of two " : "") + "in [" + std::to_string(f.lo) +
        ", " + std::to_string(f.hi) + "]");
}

template <class S, std::size_t N>
void overlay(S &s, const Field<S> (&fields)[N], const Json &j,
             const std::string &object);

/** Read the JSON value of field `f` of `object` into `out`. */
template <class S, class T>
void
decode(const Json &v, const Field<S> &f, const std::string &object, T &out)
{
    const std::string name =
        (object.empty() ? "" : object + ".") + std::string(f.key);
    if constexpr (std::is_same_v<T, MachineKind> ||
                  std::is_same_v<T, Steering>) {
        const std::string s = asStringField(v, name);
        std::optional<T> e;
        if constexpr (std::is_same_v<T, MachineKind>)
            e = machineKindFromName(s);
        else
            e = steeringFromName(s);
        if (!e)
            throw std::invalid_argument("unknown " + name + " \"" + s + "\"");
        out = *e;
    } else if constexpr (std::is_same_v<T, std::string>) {
        out = asStringField(v, name);
    } else if constexpr (std::is_same_v<T, bool>) {
        out = asBoolField(v, name);
    } else if constexpr (std::is_same_v<T, CacheParams>) {
        overlay(out, cacheFields, v, name); // keeps the keys left out
    } else if constexpr (std::is_same_v<T, LatencyTable>) {
        const std::vector<Json> &rows = v.elements();
        if (rows.size() != out.size() ||
            !std::all_of(rows.begin(), rows.end(), [](const Json &r) {
                return r.elements().size() == 2;
            }))
            throw std::invalid_argument("\"" + name + "\" must be " +
                                        std::to_string(out.size()) +
                                        " [early, late] pairs");
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = {asSizeField(rows[i].elements()[0], name),
                      asSizeField(rows[i].elements()[1], name)};
    } else {
        const std::uint64_t n = asU64Field(v, name);
        checkRange(n, f, object);
        out = static_cast<T>(n);
    }
}

/** Overlay the keys of `j` on `s`, the value of `object` ("" for the
 * config itself). */
template <class S, std::size_t N>
void
overlay(S &s, const Field<S> (&fields)[N], const Json &j,
        const std::string &object)
{
    if (!j.isObject())
        throw std::invalid_argument("\"" + object + "\" must be an object");
    for (const auto &[key, v] : j.items()) {
        const Field<S> *f =
            std::find_if(fields, fields + N,
                         [&k = key](const Field<S> &x) { return x.key == k; });
        if (f == fields + N)
            throw std::invalid_argument("unknown config key \"" +
                                        (object.empty() ? "" : object + ".") +
                                        key + "\"");
        std::visit([&](auto m) { decode(v, *f, object, s.*m); }, f->member);
    }
}

/** Every number of `s`, the value of `object`, in its field's range. */
template <class S, std::size_t N>
void
check(const S &s, const Field<S> (&fields)[N], std::string_view object)
{
    for (const Field<S> &f : fields) {
        std::visit(
            [&](auto m) {
                using T = std::remove_cvref_t<decltype(s.*m)>;
                if constexpr (std::is_same_v<T, CacheParams>) {
                    const CacheParams &c = s.*m;
                    check(c, cacheFields, f.key);
                    // CacheModel and the DL1's SAM decoder index a
                    // power-of-two number of sets.
                    const std::uint64_t way =
                        std::uint64_t{c.assoc} * c.lineBytes;
                    if (c.sizeBytes % way != 0 || !isPow2(c.sizeBytes / way))
                        throw std::invalid_argument(
                            "\"" + std::string(f.key) +
                            "\" needs size_bytes / (assoc * line_bytes) "
                            "a power of two");
                } else if constexpr (std::is_integral_v<T> &&
                                     !std::is_same_v<T, bool>) {
                    checkRange(s.*m, f, object);
                }
            },
            f.member);
    }
}

/** The JSON form of one field's value. */
template <class T>
Json
encode(const T &v)
{
    if constexpr (std::is_same_v<T, MachineKind>) {
        return Json(machineAlias(v));
    } else if constexpr (std::is_same_v<T, Steering>) {
        return Json(steeringName(v));
    } else if constexpr (std::is_same_v<T, LatencyTable>) {
        Json rows = Json::array();
        for (const LatencyPair &p : v) {
            Json pair = Json::array();
            pair.push(Json(p.early));
            pair.push(Json(p.late));
            rows.push(std::move(pair));
        }
        return rows;
    } else if constexpr (std::is_same_v<T, bool> ||
                         std::is_same_v<T, std::string>) {
        return Json(v);
    } else {
        return Json(std::uint64_t{v});
    }
}

/** The fields of `s` that differ from `base`, and the first `always`. */
template <class S, std::size_t N>
Json
diff(const S &s, const S &base, const Field<S> (&fields)[N],
     std::size_t always = 0)
{
    Json j = Json::object();
    for (std::size_t i = 0; i < N; ++i) {
        std::visit(
            [&](auto m) {
                using T = std::remove_cvref_t<decltype(s.*m)>;
                if constexpr (std::is_same_v<T, CacheParams>) {
                    Json sub = diff(s.*m, base.*m, cacheFields);
                    if (sub.size())
                        j[std::string(fields[i].key)] = std::move(sub);
                } else if (i < always || !(s.*m == base.*m)) {
                    j[std::string(fields[i].key)] = encode(s.*m);
                }
            },
            fields[i].member);
    }
    return j;
}

} // namespace

const MachineConfig &
checkConfig(const MachineConfig &cfg)
{
    check(cfg, configFields, {});
    return cfg;
}

Json
configToJson(const MachineConfig &cfg)
{
    // kind and width, the first two fields, pick the base machine.
    return diff(cfg, MachineConfig::make(cfg.kind, cfg.width), configFields,
                2);
}

MachineConfig
configFromJson(const Json &j)
{
    const Json *kind = j.find("kind");
    if (!kind)
        throw std::invalid_argument(
            "a machine config is an object with a \"kind\"");
    // The base machine first; the width defaults to 4, as a request's
    // "machine" shorthand does.
    MachineConfig cfg;
    cfg.width = 4;
    decode(*kind, configFields[0], "", cfg.kind);
    if (const Json *width = j.find("width"))
        decode(*width, configFields[1], "", cfg.width);
    cfg = MachineConfig::make(cfg.kind, cfg.width);
    overlay(cfg, configFields, j, "");
    return checkConfig(cfg);
}

std::string
configKey(const MachineConfig &cfg)
{
    return configToJson(cfg).dump();
}

} // namespace rbsim
