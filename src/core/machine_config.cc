#include "core/machine_config.hh"

#include <cassert>

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
    assert(width == 4 || width == 8 || width == 16);
    MachineConfig cfg;
    cfg.kind = kind;
    cfg.label = machineName(kind);
    cfg.width = width;
    cfg.numSchedulers = width / 2;
    cfg.schedEntries = (width == 16 ? 256 : 128) / cfg.numSchedulers;
    cfg.numClusters = width <= 4 ? 1 : width / 4;
    cfg.rbLimitedBypass = kind == MachineKind::RbLimited;
    cfg.hasRbRegfile = kind == MachineKind::RbFull;
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

} // namespace rbsim
