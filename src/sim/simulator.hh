/**
 * @file
 * Top-level simulation entry point: run one program on one machine
 * configuration with co-simulation, and collect everything the paper's
 * experiments report.
 */

#ifndef RBSIM_SIM_SIMULATOR_HH
#define RBSIM_SIM_SIMULATOR_HH

#include <memory>
#include <optional>
#include <string>

#include "common/stats.hh"
#include "core/core.hh"
#include "sim/checkpoint.hh"
#include "sim/cosim.hh"

namespace rbsim
{

/**
 * Everything a run produces: identification plus a snapshot of every
 * statistic the pipeline components wrote (core.*, bypass.*,
 * il1/dl1/l2/mem.*, fetch.*, bpred.*, lsq.*, cosim.*). There are no
 * hand-flattened counter fields; the named accessors below are thin
 * views over the snapshot.
 */
struct SimResult
{
    std::string machine;
    std::string workload;
    bool halted = false;
    //! The run stopped on SimOptions::maxInsts rather than HALT or an
    //! abort (sampled measurement windows).
    bool instLimited = false;
    double hostSeconds = 0.0; //!< wall-clock spent inside core.run()
    StatSnapshot stats;

    /** Host simulation speed in simulated kilocycles per host second. */
    double
    simKhz() const
    {
        return hostSeconds > 0.0
                   ? static_cast<double>(stats.counter("core.cycles")) /
                         hostSeconds / 1e3
                   : 0.0;
    }

    /** Instructions per cycle. */
    double ipc() const { return stats.value("core.ipc"); }

    /** Conditional-branch prediction accuracy. */
    double
    branchAccuracy() const
    {
        return stats.value("core.branchAccuracy");
    }

    /** Any counter by dotted name (0 when absent). */
    std::uint64_t
    counter(const std::string &name) const
    {
        return stats.counter(name);
    }

    /** Any vector/histogram by dotted name. */
    const std::vector<std::uint64_t> &
    vec(const std::string &name) const
    {
        return stats.vec(name);
    }
};

/**
 * Options for a run.
 *
 * Every field that can change a run's RESULT must be folded into
 * resultKey() — the serve layer derives its result-cache identity from
 * it, and tests/test_serve.cc carries a sizeof() guard that fails when
 * a field is added here without revisiting resultKey(). `tracer` and
 * `profiler` are pure observers (they never alter stats) and are
 * deliberately excluded.
 */
struct SimOptions
{
    Cycle maxCycles = 100'000'000;
    bool cosim = true; //!< lockstep-verify against the reference model
    //! Optional pipeline tracer (borrowed; must outlive the call).
    //! simulate() attaches it, reports stranded in-flight instructions
    //! when the run does not drain cleanly (cosim or wakeup-oracle
    //! mismatch, watchdog abort, cycle budget), and finishes it — even
    //! when it rethrows.
    trace::Tracer *tracer = nullptr;
    //! Optional host-time per-stage profiler (borrowed; must outlive the
    //! call). simulate() attaches it to the core and fills its
    //! allocation counters when the counting allocator is linked in.
    HostProfiler *profiler = nullptr;
    //! Retired-instruction budget (0 = run to HALT). With warmupInsts,
    //! this is the MEASURED window length after the warmup leg.
    std::uint64_t maxInsts = 0;
    //! Detailed-warmup leg: run this many instructions, snapshot the
    //! statistics, and go on (state stays warm) into the measured
    //! window, whose statistics are the end snapshot since that one
    //! (StatSnapshot::since). Each leg gets its own maxCycles budget.
    std::uint64_t warmupInsts = 0;
    //! Resume from this checkpoint instead of the program entry
    //! (shared so one checkpoint fans out to many jobs without copies).
    std::shared_ptr<const ArchCheckpoint> startFrom;

    /**
     * Canonical encoding of every result-affecting field (the serve
     * result-cache key component; checkpoints contribute their content
     * fingerprint).
     */
    std::string resultKey() const;
};

/**
 * A simulator for one machine configuration (docs/SERVING.md). Every
 * run builds its machine fresh — an OooCore and a CosimChecker — from
 * the program entry or from SimOptions::startFrom, after destroying the
 * last run's, so nothing is rewound and peak memory holds one machine.
 * A run's statistics are read from the machine at most twice: where a
 * warm-up leg ends and where the run ends. The machine is kept after
 * the run so checkpoint() can read where it stopped.
 *
 * What a Simulator keeps across runs is its program binding: a program
 * equal in content to the bound one (Program::sameContent) keeps the
 * copy and its hash, so a sampling campaign's windows never copy or
 * re-hash a scale-40 image. The serve worker pool keeps one Simulator
 * per (worker, configuration) for this binding.
 *
 * Measured on a 4-vCPU Xeon (GCC 12.2, RelWithDebInfo, perfbench
 * traced): a one-instruction run from the program entry, machine
 * construction included, takes 0.07–0.09 ms on the scale-1 programs
 * (`simulator.reset_ms`), under 1% of a 2,000–8,000-instruction served
 * job. No run builds a data image: the core and the reference share
 * the program's pages, or a checkpoint's, copy-on-write.
 */
class Simulator
{
  public:
    explicit Simulator(const MachineConfig &cfg);

    // The machine holds references to `cfg` and `prog`.
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** The (owned) configuration this instance simulates. */
    const MachineConfig &config() const { return cfg; }

    /**
     * Build a fresh machine and run `prog` to completion.
     * Throws std::invalid_argument for a SimOptions::startFrom of another
     * program or of another machine geometry, std::logic_error for one
     * of a halted program, CosimMismatch if verification fails (cosim
     * enabled) and WakeupOracleMismatch if the oracle check fails
     * (oracle mode).
     */
    SimResult run(const Program &prog,
                  const SimOptions &opts = SimOptions{});

    /** Like run(), but filling `out`. */
    void runInto(const Program &prog, const SimOptions &opts,
                 SimResult &out);

    /**
     * Capture the point the last run() stopped at as a resumable
     * checkpoint: exact retired architectural state from the cosim
     * reference (in-flight ROB/LSQ work is simply not architectural, so
     * a mid-pipeline stop — wrapped ROB, occupied LSQ — needs no
     * draining) plus the core's warm predictor/BTB/RAS/cache-tag state.
     * Requires the last run to have used cosim and stopped short of
     * HALT; throws std::logic_error otherwise, and after a run that
     * threw before its machine was built.
     */
    void checkpoint(ArchCheckpoint &out) const;

    /**
     * The committed memory of the machine the last run() left behind
     * (what its retired stores wrote). Throws std::logic_error before a
     * run, and after a run that threw before its machine was built.
     */
    const MemImage &committedMem() const;

  private:
    /** One run's machine. Built in place and never moved: the core and
     * checker hold references to the Simulator's `cfg` and `prog`. */
    struct Machine
    {
        Machine(const MachineConfig &cfg, const Program &prog,
                std::uint64_t prog_hash, const ArchCheckpoint *from,
                bool cosim);

        /** Every statistic's current value: the core's, then "cosim.*". */
        StatSnapshot snapshot() const;

        OooCore core;
        CosimChecker checker;
    };

    MachineConfig cfg;
    Program prog;
    std::uint64_t progHash; //!< prog.hash(), computed once per binding
    std::optional<Machine> machine; //!< the last run's; empty before one
    bool cosimOn = true;
    //! Dynamic-stream position of the last run's entry point (nonzero
    //! when it resumed from a checkpoint); checkpoint() adds it to the
    //! reference's step count so positions stay absolute across chains.
    std::uint64_t instBase = 0;
};

/**
 * The one definition of the derived statistics: set core.ipc,
 * core.branchAccuracy, core.issueWaitMean and il1/dl1/l2.missRate in
 * `s` from its counters, leaving out each one whose denominator counter
 * `s` lacks. Every run's snapshot goes through it — whole runs,
 * measured windows and merged sampled windows — so a ratio is always
 * a ratio of the counters beside it.
 */
void deriveFormulas(StatSnapshot &s);

/**
 * Run `prog` to completion on `cfg` (one-shot convenience: constructs a
 * Simulator and runs once, so both paths share one implementation).
 * Throws like Simulator::run().
 */
SimResult simulate(const MachineConfig &cfg, const Program &prog,
                   const SimOptions &opts = SimOptions{});

} // namespace rbsim

#endif // RBSIM_SIM_SIMULATOR_HH
