/**
 * @file
 * Machine configurations: the four machines of paper section 5.1 (Table 2
 * structure, Table 3 latencies) plus the limited-bypass variants of the
 * Ideal machine used for Figure 14.
 *
 * Latency convention: all latencies are in select-to-select cycles — a
 * producer selected at cycle s with early latency L can feed a dependent
 * selected at cycle s + L through the first bypass level. `early` is the
 * first availability in redundant binary (or the only availability for
 * single-format machines); `late` is the first availability in two's
 * complement (early + 2 when the result passes the format converter).
 *
 * Table 3 ambiguities resolved here (see DESIGN.md):
 *  - integer multiply is printed without a parenthesized TC latency, so
 *    the multiplier is modeled as folding the conversion into its final
 *    carry-propagate add (early == late == 10);
 *  - byte manipulation keeps the printed 1 (3) pair on the RB machines;
 *  - CTLZ/CTTZ/CTPOP are not in Table 3 and use the byte-manipulation row;
 *  - conditional moves use the integer-arithmetic row (Table 1 groups
 *    CMOV with ADD/SUB);
 *  - branch resolution uses the integer-compare early latency.
 */

#ifndef RBSIM_CORE_MACHINE_CONFIG_HH
#define RBSIM_CORE_MACHINE_CONFIG_HH

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "common/json.hh"
#include "common/types.hh"
#include "isa/opclass.hh"

namespace rbsim
{

/** The four machine models compared in section 5. */
enum class MachineKind : unsigned char
{
    Baseline,  //!< 2-cycle pipelined two's complement ALUs
    RbLimited, //!< RB adders, TC register file, limited bypass (§4.2)
    RbFull,    //!< RB adders, TC + RB register files (§4.1)
    Ideal,     //!< 1-cycle two's complement ALUs
};

/** Printable machine name as used in the paper's figures. */
const char *machineName(MachineKind kind);

/** Short alias of a machine kind: "base", "rblim", "rbfull", "ideal". */
const char *machineAlias(MachineKind kind);

/** The machine kind whose figure label or short alias is `name`;
 * nullopt for any other name. */
std::optional<MachineKind> machineKindFromName(const std::string &name);

/** Dispatch steering policy. */
enum class Steering : unsigned char
{
    RoundRobinPairs, //!< the paper's policy: consecutive pairs, strict RR
    DependenceAware, //!< future-work policy (section 4.2): steer toward
                     //!< the producer's scheduler to keep dependence
                     //!< chains inside one cluster / near their bypass
    ClassPartition,  //!< section 4.3's "separate schedulers" technique:
                     //!< RB-output classes use the lower half of the
                     //!< schedulers, TC-only classes the upper half
};

/** Name of a steering policy as serve requests and fuzz repro headers
 * spell it: "rr-pairs", "dep-aware", "class-partition". */
const char *steeringName(Steering s);

/** The steering policy named `name`; nullopt for any other name. */
std::optional<Steering> steeringFromName(const std::string &name);

/** Early/late result availability latencies (select-to-select cycles). */
struct LatencyPair
{
    unsigned early = 1; //!< RB-format availability (first bypass level)
    unsigned late = 1;  //!< TC-format availability (early + conversion)

    bool operator==(const LatencyPair &) const = default;
};

/** One latency pair per op class (Table 3). */
using LatencyTable = std::array<LatencyPair, numOpClasses>;

/** Cache geometry and timing. */
struct CacheParams
{
    std::uint32_t sizeBytes = 0;
    std::uint32_t assoc = 1;
    std::uint32_t lineBytes = 64;
    unsigned latency = 1;      //!< access latency in cycles (pipelined)
    unsigned banks = 1;        //!< number of banks for contention
    unsigned bankBusy = 1;     //!< cycles a bank stays busy per access
};

/** Full machine configuration. */
struct MachineConfig
{
    MachineKind kind = MachineKind::Ideal;
    std::string label = "Ideal";

    // Execution resources (paper Table 2).
    unsigned width = 8;          //!< number of functional units (4 or 8)
    unsigned numSchedulers = 4;  //!< select-2 schedulers
    unsigned schedEntries = 32;  //!< entries per scheduler (window = 128)
    unsigned selectWidth = 2;    //!< instructions each scheduler picks
    unsigned numClusters = 2;    //!< 8-wide machines are 2-clustered
    unsigned crossClusterDelay = 1;

    // Front end and window.
    unsigned fetchWidth = 8;
    unsigned fetchBlocks = 2;    //!< basic blocks fetched per cycle
    unsigned renameWidth = 8;
    unsigned retireWidth = 8;
    unsigned robEntries = 128;
    unsigned lsqEntries = 64;
    unsigned physRegs = 320;
    unsigned fetchDecodeDepth = 6;
    unsigned renameDepth = 2;
    unsigned rfReadDepth = 2;    //!< 2-cycle register file

    // Bypass network.
    unsigned numBypassLevels = 3;     //!< full network: 3 levels + RF
    std::uint8_t bypassLevelMask = 0b111; //!< bit k-1: level k present
    bool holeAwareScheduling = true;  //!< section 4.3 wakeup; ablation knob
    Steering steering = Steering::RoundRobinPairs;

    // Host-simulation knob (no effect on simulated behavior; oracle and
    // plain runs produce bit-identical statistics — CI enforces it via
    // scripts/bench_diff.py --exact).
    bool wakeupOracle = false;    //!< step every cycle (no idle skip) and
                                  //!< check every latched wakeup bit
                                  //!< against its pure predicate; throws
                                  //!< WakeupOracleMismatch on divergence
    Cycle deadlockCycles = 100000; //!< abort a run after this many cycles
                                   //!< without retirement progress

    // Memory system (paper Table 2).
    CacheParams il1{64 * 1024, 4, 64, 2, 1, 1};
    CacheParams dl1{8 * 1024, 2, 64, 2, 1, 1};
    CacheParams l2{1024 * 1024, 8, 64, 8, 2, 2};
    unsigned memLatency = 100;
    unsigned memBanks = 32;
    unsigned memBankBusy = 16;

    // Latencies per op class (Table 3).
    LatencyTable latency{};
    unsigned storeCompleteLat = 1; //!< 3 on RB machines (data conversion)

    /** Latency pair for an op class. */
    LatencyPair
    latencyOf(OpClass cls) const
    {
        return latency[static_cast<unsigned>(cls)];
    }

    /** Branch resolution latency (select to resolved). */
    unsigned
    branchResolveLat() const
    {
        return latencyOf(OpClass::IntCompare).early;
    }

    /** True when results of this class pass the format converter. */
    bool
    isDualFormat(OpClass cls) const
    {
        const LatencyPair p = latencyOf(cls);
        return p.late > p.early;
    }

    /**
     * Build one of the paper's machines.
     * @param kind which machine
     * @param width execution width: 4, 8 or 16 functional units
     *        (std::invalid_argument otherwise)
     */
    static MachineConfig make(MachineKind kind, unsigned width);

    /**
     * An Ideal machine with a limited bypass network for Figure 14.
     * @param width 4 or 8
     * @param level_mask bit k-1 set iff bypass level k is present
     */
    static MachineConfig makeIdealLimited(unsigned width,
                                          std::uint8_t level_mask);
};

// ------------------------------------------------------------ JSON codec
// One field list drives the JSON form of a MachineConfig that serve
// requests, result-cache keys and .repro config lines share.

/** One field of a MachineConfig or of one of its caches: JSON key,
 * member and, for a number, the values it accepts — [lo, hi], only
 * powers of two when `pow2`. */
template <class S>
struct Field
{
    std::string_view key;
    std::variant<MachineKind S::*, std::string S::*, unsigned S::*,
                 std::uint8_t S::*, Cycle S::*, bool S::*, Steering S::*,
                 CacheParams S::*, LatencyTable S::*>
        member;
    std::uint64_t lo = 0;
    std::uint64_t hi = std::numeric_limits<unsigned>::max();
    bool pow2 = false;
};

/** The keys of an il1/dl1/l2 cache object. */
inline constexpr Field<CacheParams> cacheFields[] = {
    {"size_bytes", &CacheParams::sizeBytes},
    {"assoc", &CacheParams::assoc, 1},
    {"line_bytes", &CacheParams::lineBytes, 1,
     std::numeric_limits<unsigned>::max(), true},
    {"latency", &CacheParams::latency},
    {"banks", &CacheParams::banks, 1},
    {"bank_busy", &CacheParams::bankBusy},
};

/** Every MachineConfig field once, in JSON order; `kind` and `width`
 * pick the MachineConfig::make machine the rest overlay. The sizes sit
 * well above every committed machine yet bound the core's storage and
 * SlotRef's 16-bit slots; bypass level k is bit k-1 of an 8-bit mask. */
inline constexpr Field<MachineConfig> configFields[] = {
    {"kind", &MachineConfig::kind},
    {"width", &MachineConfig::width, 4, 16, true},
    {"label", &MachineConfig::label},
    {"num_schedulers", &MachineConfig::numSchedulers, 1, 64},
    {"sched_entries", &MachineConfig::schedEntries, 1, 4096},
    {"select_width", &MachineConfig::selectWidth, 1, 64},
    {"num_clusters", &MachineConfig::numClusters},
    {"cross_cluster_delay", &MachineConfig::crossClusterDelay},
    {"fetch_width", &MachineConfig::fetchWidth, 1, 64},
    {"fetch_blocks", &MachineConfig::fetchBlocks},
    {"rename_width", &MachineConfig::renameWidth, 1, 64},
    {"retire_width", &MachineConfig::retireWidth, 1, 64},
    {"rob_entries", &MachineConfig::robEntries, 1, 4096},
    {"lsq_entries", &MachineConfig::lsqEntries, 1, 4096},
    {"phys_regs", &MachineConfig::physRegs, numArchRegs + 1, 8192},
    {"fetch_decode_depth", &MachineConfig::fetchDecodeDepth, 0, 64},
    {"rename_depth", &MachineConfig::renameDepth, 0, 64},
    {"rf_read_depth", &MachineConfig::rfReadDepth},
    {"num_bypass_levels", &MachineConfig::numBypassLevels, 1, 8},
    {"bypass_level_mask", &MachineConfig::bypassLevelMask, 0, 255},
    {"hole_aware_scheduling", &MachineConfig::holeAwareScheduling},
    {"steering", &MachineConfig::steering},
    {"wakeup_oracle", &MachineConfig::wakeupOracle},
    {"deadlock_cycles", &MachineConfig::deadlockCycles, 0,
     std::numeric_limits<Cycle>::max()},
    {"il1", &MachineConfig::il1},
    {"dl1", &MachineConfig::dl1},
    {"l2", &MachineConfig::l2},
    {"mem_latency", &MachineConfig::memLatency},
    {"mem_banks", &MachineConfig::memBanks, 1},
    {"mem_bank_busy", &MachineConfig::memBankBusy},
    {"latency", &MachineConfig::latency},
    {"store_complete_lat", &MachineConfig::storeCompleteLat},
};

/** Throw std::invalid_argument naming the first number of `cfg` out of
 * its field's range, or the first cache without a whole, power-of-two
 * number of sets; return `cfg`, for a constructor's initializer list. */
const MachineConfig &checkConfig(const MachineConfig &cfg);

/** `kind`, `width` and every field that differs from
 * MachineConfig::make(kind, width); of a cache, the keys that differ. */
Json configToJson(const MachineConfig &cfg);

/** MachineConfig::make(kind, width) with the keys present overlaid,
 * then checkConfig. `kind` (alias or figure label) is required; `width`
 * defaults to 4. Throws std::invalid_argument on an unknown key, a
 * value of the wrong type, or a number outside its field's range. */
MachineConfig configFromJson(const Json &j);

/** The compact configToJson dump: equal iff two configs simulate alike
 * (label included), so it keys serve's results and simulators. */
std::string configKey(const MachineConfig &cfg);

} // namespace rbsim

#endif // RBSIM_CORE_MACHINE_CONFIG_HH
