/**
 * @file
 * Differential oracles for the fuzzer. Each oracle runs a generated
 * program on machine configs and checks one exact equivalence the
 * paper's claims rest on; a failing program can be shrunk:
 *
 *  - "cosim": lockstep co-simulation of OooCore against the functional
 *             interpreter on a set of fuzzed machine configs, plus
 *             cross-machine agreement of the final architectural memory
 *             (every machine must compute the same program state).
 *  - "sched": the wakeup-array scheduler in oracle mode (stepped every
 *             cycle, every latched wakeup bit checked against its
 *             predicate) against a plain idle-skipping run: no oracle
 *             mismatch and bit-identical StatSnapshots.
 *
 * The RB arithmetic itself is not fuzzed: tests/test_rb_digit_slice.cc
 * and tests/test_rbalu.cc prove it exhaustively.
 *
 * A `Plant` selects an intentionally injected bug so the
 * detect-shrink-repro pipeline itself can be tested end to end.
 */

#ifndef RBSIM_FUZZ_ORACLE_HH
#define RBSIM_FUZZ_ORACLE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "fuzz/generator.hh"

namespace rbsim::fuzz
{

/** Intentionally injected bugs (pipeline self-tests). */
enum class Plant : unsigned char
{
    None,
    /** The "sched" oracle silently widens the bypass-level mask on the
     * plain run only — the two runs simulate different machines and
     * their snapshots must diverge. */
    SchedBypassWiden,
    /** The "cosim" oracle is replaced by a fake that fails exactly when
     * the program contains both a MULQ and an STQ — a deterministic
     * target for shrinker tests. */
    CosimOpcodePair,
};

/** Parse a plant name ("", "sched-bypass-widen", "cosim-opcode-pair").
 * Throws std::invalid_argument on unknown names. */
Plant parsePlant(const std::string &name);

/** Verdict of one oracle case. */
struct OracleResult
{
    bool failed = false;
    std::string detail; //!< human-readable failure description
};

/**
 * Pipeline-trace sink configuration for program-level oracle runs (see
 * src/trace). Default-constructed = no tracing. When `streamPath` is
 * set, each simulated machine writes a full O3PipeView trace to
 * "<streamPath>.<label>"; when `ringLast` is set, the last N
 * instructions of the failing run are dumped to `ringPath` and the
 * failure detail names the file.
 */
struct TraceSpec
{
    std::string streamPath; //!< per-machine full-trace file prefix
    std::size_t ringLast = 0; //!< ring-buffer the last N instructions
    std::string ringPath;   //!< failure dump target for the ring

    bool
    enabled() const
    {
        return !streamPath.empty() ||
               (ringLast != 0 && !ringPath.empty());
    }
};

/** One differential oracle. */
class Oracle
{
  public:
    explicit Oracle(Plant plant_ = Plant::None) : plant(plant_) {}
    virtual ~Oracle() = default;

    /** Stable oracle name (CLI flag, repro files, stats keys). */
    virtual std::string name() const = 0;

    /** The machine configs one case runs against. */
    virtual std::vector<MachineConfig> pickConfigs(Rng &rng) const = 0;

    /** Run the differential check. */
    virtual OracleResult
    runProgram(const Program &prog,
               const std::vector<MachineConfig> &configs) const = 0;

    /** Arm pipeline tracing for subsequent runProgram calls. */
    void setTrace(const TraceSpec &spec) { traceSpec = spec; }

    /**
     * Bound every later runProgram call to a window of the dynamic
     * instruction stream: functionally fast-forward `resume_skip`
     * retired instructions (checkpoint capture + resume, exactly the
     * sampling engine's discipline), then simulate at most `max_insts`
     * (0 = to HALT). Makes shrunk repros of deep failures replayable in
     * seconds instead of resimulating the full prefix. Oracles without
     * a windowed mode ignore the limits. A program that halts inside
     * the skip passes vacuously — the shrinker evaluates candidates
     * under the same limits, so the window pins the same failure.
     */
    void
    setRunLimits(std::uint64_t max_insts, std::uint64_t resume_skip)
    {
        maxInsts = max_insts;
        resumeSkip = resume_skip;
    }

  protected:
    Plant plant;
    TraceSpec traceSpec;
    std::uint64_t maxInsts = 0;   //!< measured-window budget (0 = off)
    std::uint64_t resumeSkip = 0; //!< fast-forward skip (0 = off)
};

/** Canonical oracle names, in default fuzzing order. */
std::vector<std::string> oracleNames();

/**
 * Build oracles by name (both when `names` is empty), wiring the
 * requested plant into the affected oracle and arming the trace sinks
 * on every oracle. Throws std::invalid_argument for unknown names.
 */
std::vector<std::unique_ptr<Oracle>>
makeOracles(const std::vector<std::string> &names = {},
            Plant plant = Plant::None, const TraceSpec &spec = {});

/**
 * First difference between two snapshots as "name: a=<x> b=<y>", or ""
 * when equal. Used by the scheduler-parity oracle and its tests.
 */
std::string snapshotDiff(const StatSnapshot &a, const StatSnapshot &b);

} // namespace rbsim::fuzz

#endif // RBSIM_FUZZ_ORACLE_HH
