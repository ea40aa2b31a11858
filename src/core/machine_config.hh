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
#include <optional>
#include <string>

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
};

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
    bool rbLimitedBypass = false;     //!< the section 4.2 limited network
    bool hasRbRegfile = false;        //!< RB-full keeps RB register files
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
    std::array<LatencyPair, numOpClasses> latency{};
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
     * @param width execution width (4 or 8 functional units)
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

} // namespace rbsim

#endif // RBSIM_CORE_MACHINE_CONFIG_HH
