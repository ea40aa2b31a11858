/**
 * @file
 * GenConfig (de)serialization and naming, the named presets, and the
 * four concrete WorkloadGen families. The lowering pass lives in
 * lower.cc.
 */

#include "workloads/gen/opstream.hh"

#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "common/rng.hh"
#include "workloads/gen/keydist.hh"

namespace rbsim::gen
{

const char *
genFamilyName(GenFamily family)
{
    switch (family) {
      case GenFamily::KeyAccess: return "key-access";
      case GenFamily::PointerChase: return "pointer-chase";
      case GenFamily::BranchEntropy: return "branch-entropy";
      case GenFamily::RbAdversarial: return "rb-adversarial";
      default: return "<bad>";
    }
}

GenFamily
genFamilyFromName(const std::string &name)
{
    for (GenFamily f :
         {GenFamily::KeyAccess, GenFamily::PointerChase,
          GenFamily::BranchEntropy, GenFamily::RbAdversarial}) {
        if (name == genFamilyName(f))
            return f;
    }
    throw std::invalid_argument("unknown generator family '" + name +
                                "'");
}

const char *
keyDistName(KeyDist dist)
{
    switch (dist) {
      case KeyDist::Uniform: return "uniform";
      case KeyDist::Zipfian: return "zipfian";
      case KeyDist::SelfSimilar: return "selfsimilar";
      default: return "<bad>";
    }
}

KeyDist
keyDistFromName(const std::string &name)
{
    for (KeyDist d : {KeyDist::Uniform, KeyDist::Zipfian,
                      KeyDist::SelfSimilar}) {
        if (name == keyDistName(d))
            return d;
    }
    throw std::invalid_argument("unknown key distribution '" + name +
                                "'");
}

namespace
{

std::string
fmt2(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return buf;
}

std::string
humanBytes(std::uint64_t bytes)
{
    char buf[32];
    if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0)
        std::snprintf(buf, sizeof buf, "%llum",
                      static_cast<unsigned long long>(bytes >> 20));
    else
        std::snprintf(buf, sizeof buf, "%lluk",
                      static_cast<unsigned long long>(bytes >> 10));
    return buf;
}

} // namespace

std::string
GenConfig::name() const
{
    if (!label.empty())
        return label;
    switch (family) {
      case GenFamily::KeyAccess:
        switch (dist) {
          case KeyDist::Zipfian: return "zipf-" + fmt2(skew);
          case KeyDist::SelfSimilar: return "selfsim-" + fmt2(skew);
          case KeyDist::Uniform:
          default: return "uniform";
        }
      case GenFamily::PointerChase:
        return "chase-" + humanBytes(workingSetBytes);
      case GenFamily::BranchEntropy:
        return "branch-" + fmt2(takenRate);
      case GenFamily::RbAdversarial:
      default:
        return "rbadv-" + std::to_string(chainLen);
    }
}

Json
GenConfig::toJsonValue() const
{
    Json j = Json::object();
    j["family"] = Json(genFamilyName(family));
    j["dist"] = Json(keyDistName(dist));
    j["skew"] = Json(skew);
    j["numKeys"] = Json(numKeys);
    j["scramble"] = Json(scramble);
    j["readFrac"] = Json(readFrac);
    j["updateFrac"] = Json(updateFrac);
    j["rmwFrac"] = Json(rmwFrac);
    j["scanFrac"] = Json(scanFrac);
    j["scanLen"] = Json(scanLen);
    j["workingSetBytes"] = Json(workingSetBytes);
    j["nodeBytes"] = Json(nodeBytes);
    j["chaseSteps"] = Json(chaseSteps);
    j["takenRate"] = Json(takenRate);
    j["chainLen"] = Json(chainLen);
    j["streamOps"] = Json(streamOps);
    j["trips"] = Json(trips);
    if (!label.empty())
        j["label"] = Json(label);
    return j;
}

GenConfig
GenConfig::fromJsonValue(const Json &j)
{
    if (!j.isObject())
        throw std::invalid_argument("GenConfig JSON must be an object");
    GenConfig c;
    for (const auto &[key, v] : j.items()) {
        if (key == "family")
            c.family = genFamilyFromName(asStringField(v, key));
        else if (key == "dist")
            c.dist = keyDistFromName(asStringField(v, key));
        else if (key == "skew")
            c.skew = v.asDouble();
        else if (key == "numKeys")
            c.numKeys = asSizeField(v, key);
        else if (key == "scramble")
            c.scramble = asBoolField(v, key);
        else if (key == "readFrac")
            c.readFrac = v.asDouble();
        else if (key == "updateFrac")
            c.updateFrac = v.asDouble();
        else if (key == "rmwFrac")
            c.rmwFrac = v.asDouble();
        else if (key == "scanFrac")
            c.scanFrac = v.asDouble();
        else if (key == "scanLen")
            c.scanLen = asSizeField(v, key);
        else if (key == "workingSetBytes")
            c.workingSetBytes = asSizeField(v, key);
        else if (key == "nodeBytes")
            c.nodeBytes = asSizeField(v, key);
        else if (key == "chaseSteps")
            c.chaseSteps = asSizeField(v, key);
        else if (key == "takenRate")
            c.takenRate = v.asDouble();
        else if (key == "chainLen")
            c.chainLen = asSizeField(v, key);
        else if (key == "streamOps")
            c.streamOps = asSizeField(v, key);
        else if (key == "trips")
            c.trips = asSizeField(v, key);
        else if (key == "label")
            c.label = asStringField(v, key);
        else
            throw std::invalid_argument("unknown GenConfig key \"" + key +
                                        "\"");
    }
    return c;
}

GenConfig
GenConfig::fromJson(const std::string &text)
{
    return fromJsonValue(Json::parse(text));
}

// ------------------------------------------------------------- presets

namespace
{

GenConfig
keyMix(double read, double update, double rmw, double scan,
       KeyDist dist, double skew)
{
    GenConfig c;
    c.family = GenFamily::KeyAccess;
    c.dist = dist;
    c.skew = skew;
    c.readFrac = read;
    c.updateFrac = update;
    c.rmwFrac = rmw;
    c.scanFrac = scan;
    return c;
}

GenConfig
chaseConfig(std::uint32_t ws)
{
    GenConfig c;
    c.family = GenFamily::PointerChase;
    c.workingSetBytes = ws;
    return c;
}

GenConfig
branchConfig(double rate)
{
    GenConfig c;
    c.family = GenFamily::BranchEntropy;
    c.takenRate = rate;
    return c;
}

/** Parse the numeric suffix of "zipf-0.75"-style names. */
bool
paramSuffix(const std::string &name, const char *prefix, double &out)
{
    const std::string p(prefix);
    if (name.rfind(p, 0) != 0 || name.size() <= p.size())
        return false;
    try {
        std::size_t used = 0;
        out = std::stod(name.substr(p.size()), &used);
        return used == name.size() - p.size();
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace

namespace
{

GenConfig
genPresetImpl(const std::string &name)
{
    // The YCSB core-workload molds (zipfian popularity, theta 0.99).
    // D approximates read-latest with plain zipfian popularity and E's
    // inserts become updates: the simulated key table is fixed-size.
    if (name == "ycsb-a")
        return keyMix(0.5, 0.5, 0, 0, KeyDist::Zipfian, 0.99);
    if (name == "ycsb-b" || name == "ycsb-d")
        return keyMix(0.95, 0.05, 0, 0, KeyDist::Zipfian, 0.99);
    if (name == "ycsb-c")
        return keyMix(1.0, 0, 0, 0, KeyDist::Zipfian, 0.99);
    if (name == "ycsb-e")
        return keyMix(0, 0.05, 0, 0.95, KeyDist::Zipfian, 0.99);
    if (name == "ycsb-f")
        return keyMix(0.5, 0, 0.5, 0, KeyDist::Zipfian, 0.99);
    if (name == "uniform")
        return keyMix(0.5, 0.5, 0, 0, KeyDist::Uniform, 0);
    if (name == "chase-dl1")
        return chaseConfig(4 * 1024); // resident in the 8 KiB DL1
    if (name == "chase-l2")
        return chaseConfig(256 * 1024); // spills DL1, fits 1 MiB L2
    if (name == "chase-mem")
        return chaseConfig(4 * 1024 * 1024); // spills L2
    if (name == "rb-adversarial") {
        GenConfig c;
        c.family = GenFamily::RbAdversarial;
        c.numKeys = 512; // small observability table
        return c;
    }
    double v = 0;
    if (paramSuffix(name, "zipf-", v))
        return keyMix(0.5, 0.5, 0, 0, KeyDist::Zipfian, v);
    if (paramSuffix(name, "selfsim-", v))
        return keyMix(0.5, 0.5, 0, 0, KeyDist::SelfSimilar, v);
    if (paramSuffix(name, "branch-", v))
        return branchConfig(v);
    throw std::invalid_argument("unknown generator preset '" + name +
                                "'");
}

} // namespace

GenConfig
genPreset(const std::string &name)
{
    GenConfig c = genPresetImpl(name);
    // Fixed preset names become the config's label so the derived
    // workload name round-trips ("chase-l2" stays "chase-l2", not
    // "chase-256k"); parameterized forms already derive their own
    // canonical spelling.
    for (const std::string &fixed : genPresetNames()) {
        if (name == fixed)
            c.label = name;
    }
    return c;
}

std::vector<std::string>
genPresetNames()
{
    return {"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f",
            "uniform", "chase-dl1", "chase-l2", "chase-mem",
            "rb-adversarial"};
}

// ---------------------------------------------------------- generators

namespace
{

/** Shared plumbing: a bound config, a forked rng, an op countdown. */
class StreamGenBase : public WorkloadGen
{
  public:
    void
    load(const GenConfig &cfg_, std::uint64_t seed) override
    {
        cfg = cfg_;
        rng = Rng(seed);
        left = cfg.streamOps;
        onLoad();
    }

    bool
    next(WorkloadOp &op) override
    {
        if (left == 0) {
            op = WorkloadOp{};
            return false;
        }
        --left;
        op = draw();
        return true;
    }

  protected:
    virtual void onLoad() {}
    virtual WorkloadOp draw() = 0;

    GenConfig cfg;
    Rng rng{0};
    std::uint64_t left = 0;
};

/** Skewed reads/updates/RMWs/scans over the key table (YCSB mold). */
class KeyAccessGen : public StreamGenBase
{
  public:
    GenFamily family() const override { return GenFamily::KeyAccess; }

  protected:
    void
    onLoad() override
    {
        picker = std::make_unique<KeyPicker>(cfg.dist, cfg.numKeys,
                                             cfg.skew, cfg.scramble);
        const double total = cfg.readFrac + cfg.updateFrac +
                             cfg.rmwFrac + cfg.scanFrac;
        const double norm = total > 0 ? total : 1.0;
        cdfRead = cfg.readFrac / norm;
        cdfUpdate = cdfRead + cfg.updateFrac / norm;
        cdfRmw = cdfUpdate + cfg.rmwFrac / norm;
    }

    WorkloadOp
    draw() override
    {
        WorkloadOp op;
        // 1/2^20-granular mix draw keeps the stream integer-only.
        const double u =
            static_cast<double>(rng.below(1u << 20)) / (1u << 20);
        if (u < cdfRead)
            op.kind = WorkloadOp::Kind::KeyRead;
        else if (u < cdfUpdate)
            op.kind = WorkloadOp::Kind::KeyUpdate;
        else if (u < cdfRmw)
            op.kind = WorkloadOp::Kind::KeyRmw;
        else
            op.kind = WorkloadOp::Kind::KeyScan;
        op.key = picker->pick(rng);
        op.len = op.kind == WorkloadOp::Kind::KeyScan ? cfg.scanLen : 0;
        return op;
    }

  private:
    std::unique_ptr<KeyPicker> picker;
    double cdfRead = 1.0, cdfUpdate = 1.0, cdfRmw = 1.0;
};

/** Serial derefs through the sized ring, with light compute filler. */
class PointerChaseGen : public StreamGenBase
{
  public:
    GenFamily family() const override { return GenFamily::PointerChase; }

  protected:
    WorkloadOp
    draw() override
    {
        WorkloadOp op;
        if (rng.chance(1, 8)) {
            op.kind = WorkloadOp::Kind::Compute;
            op.len = 2;
        } else {
            op.kind = WorkloadOp::Kind::PointerChase;
            op.len = cfg.chaseSteps;
        }
        return op;
    }
};

/** Data-dependent branches drawn at the configured taken-rate. */
class BranchEntropyGen : public StreamGenBase
{
  public:
    GenFamily
    family() const override
    {
        return GenFamily::BranchEntropy;
    }

  protected:
    WorkloadOp
    draw() override
    {
        WorkloadOp op;
        if (rng.chance(1, 4)) {
            op.kind = WorkloadOp::Kind::Compute;
            op.len = 2;
        } else {
            op.kind = WorkloadOp::Kind::Branch;
            op.taken = static_cast<double>(rng.below(1u << 20)) /
                           (1u << 20) <
                       cfg.takenRate;
        }
        return op;
    }
};

/** Serial shift->logical bursts — the Table 3 conversion worst case —
 * with occasional key updates so state lands in memory. */
class RbAdversarialGen : public StreamGenBase
{
  public:
    GenFamily
    family() const override
    {
        return GenFamily::RbAdversarial;
    }

  protected:
    WorkloadOp
    draw() override
    {
        WorkloadOp op;
        if (rng.chance(1, 4)) {
            op.kind = WorkloadOp::Kind::KeyUpdate;
            op.key = rng.below(cfg.numKeys);
        } else {
            op.kind = WorkloadOp::Kind::Compute;
            op.len = cfg.chainLen;
            op.rb = true;
        }
        return op;
    }
};

} // namespace

std::unique_ptr<WorkloadGen>
makeWorkloadGen(GenFamily family)
{
    switch (family) {
      case GenFamily::KeyAccess:
        return std::make_unique<KeyAccessGen>();
      case GenFamily::PointerChase:
        return std::make_unique<PointerChaseGen>();
      case GenFamily::BranchEntropy:
        return std::make_unique<BranchEntropyGen>();
      case GenFamily::RbAdversarial:
      default:
        return std::make_unique<RbAdversarialGen>();
    }
}

std::vector<WorkloadOp>
drawStream(const GenConfig &cfg, std::uint64_t seed)
{
    auto gen = makeWorkloadGen(cfg.family);
    gen->load(cfg, seed);
    std::vector<WorkloadOp> ops;
    ops.reserve(cfg.streamOps);
    WorkloadOp op;
    while (gen->next(op))
        ops.push_back(op);
    return ops;
}

Program
buildGenProgram(const GenConfig &cfg, const WorkloadParams &wp)
{
    const std::vector<WorkloadOp> ops =
        drawStream(cfg, Rng::mixSeed(wp.seed, 1));
    return lowerStream(cfg, ops, wp);
}

WorkloadInfo
genWorkloadInfo(const GenConfig &cfg)
{
    WorkloadInfo info;
    info.name = cfg.name();
    info.suite = "gen";
    info.description = genFamilyName(cfg.family);
    info.build = [cfg](const WorkloadParams &wp) {
        return buildGenProgram(cfg, wp);
    };
    return info;
}

std::vector<GenConfig>
genSweepConfigs(const std::vector<double> &skews)
{
    const std::vector<double> zipfSkews =
        skews.empty()
            ? std::vector<double>{0.5, 0.6, 0.7, 0.8, 0.9, 0.99}
            : skews;
    std::vector<GenConfig> out;
    for (double s : zipfSkews)
        out.push_back(keyMix(0.5, 0.5, 0, 0, KeyDist::Zipfian, s));
    out.push_back(keyMix(0.5, 0.5, 0, 0, KeyDist::SelfSimilar, 0.2));
    out.push_back(genPreset("uniform"));
    out.push_back(genPreset("chase-dl1"));
    out.push_back(genPreset("chase-l2"));
    out.push_back(genPreset("chase-mem"));
    out.push_back(branchConfig(0.5));
    out.push_back(branchConfig(0.9));
    out.push_back(branchConfig(0.99));
    out.push_back(genPreset("rb-adversarial"));
    return out;
}

} // namespace rbsim::gen
