/**
 * @file
 * The out-of-order execution core: 13+-stage pipeline with fetch,
 * rename/dispatch, partitioned select-2 schedulers with hole-aware
 * wakeup, format-aware bypass, clustered execution, LSQ, ROB, and
 * in-order retirement with a co-simulation hook.
 */

#ifndef RBSIM_CORE_CORE_HH
#define RBSIM_CORE_CORE_HH

#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "common/hostprof.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "core/exec.hh"
#include "core/machine_config.hh"
#include "core/regfile.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "core/scheduler.hh"
#include "core/scoreboard.hh"
#include "frontend/fetch.hh"
#include "func/mem_image.hh"
#include "mem/lsq.hh"
#include "mem/sam.hh"
#include "trace/tracer.hh"

namespace rbsim
{

struct ArchCheckpoint;

/** Thrown in oracle mode (MachineConfig::wakeupOracle) when a latched
 * wakeup bit disagrees with the pure predicate it caches. */
class WakeupOracleMismatch : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Everything the core counts. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t fetched = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t issued = 0;
    std::uint64_t squashed = 0; //!< in-flight instructions squashed

    std::uint64_t condBranches = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t flushes = 0;
    std::uint64_t jmpFetchStalls = 0; //!< mispredicted JMPs that also
                                      //!< stalled fetch

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t loadForwards = 0; //!< served by store forwarding

    std::uint64_t rbPathExecs = 0; //!< executed on the RB datapath
    std::uint64_t rbBogusCorrections = 0; //!< section 3.5 corrections

    //! Retired-instruction counts per paper Table 1 row.
    std::array<std::uint64_t, numTable1Rows> table1{};

    //! Figure 13: last-arriving bypassed source classification (retired).
    std::array<std::uint64_t, numBypassCases> bypassCase{};
    std::uint64_t withBypassedSource = 0; //!< >= 1 bypassed source
    std::uint64_t withAnySource = 0; //!< >= 1 register source

    //! Which bypass slot (cycles past first availability) served the
    //! last-arriving operand; [numBypassLevels] means register file.
    std::array<std::uint64_t, 8> bypassSlotUsed{};

    //! Issue-wait accounting.
    std::uint64_t issueWaitSum = 0; //!< sum of (issue - dispatch - 1)
    std::uint64_t holeWaitCycles = 0; //!< entry-cycles blocked only by a
                                      //!< hole in availability

    //! Runs aborted by the no-retirement-progress watchdog.
    std::uint64_t deadlockAborts = 0;

    //! Per-stage cycle accounting (first-class histograms).
    Histogram issueWait{16};   //!< per retired inst: issue-dispatch-1
    Histogram holeWait{16};    //!< per retired inst: cycles blocked only
                               //!< by availability holes
    Histogram retireSlots{17}; //!< per cycle: instructions retired
    Histogram fetchSlots{17};  //!< per cycle: instructions fetched
};

/** The core. */
class OooCore
{
  public:
    /**
     * A core whose committed memory starts by sharing a page map
     * copy-on-write: the program's data image at the program entry, or
     * — given `from`, a checkpoint of `prog` — the checkpoint's pages,
     * with the architectural registers in their home physical
     * registers, fetch at its PC, and the warm predictor/BTB/RAS tables
     * and the three cache tag arrays installed. A core runs one program
     * once; a new run builds a new core.
     *
     * Throws std::invalid_argument for a `cfg` that fails checkConfig
     * (before any component is built) or a checkpoint whose predictor,
     * BTB or cache-tag geometry does not fit it; std::logic_error for a
     * checkpoint of a halted program (nothing to resume).
     *
     * @param cfg machine configuration (must outlive the core)
     * @param prog program to run (must outlive the core)
     * @param from checkpoint of `prog` to resume from (read only here)
     */
    OooCore(const MachineConfig &cfg, const Program &prog,
            const ArchCheckpoint *from = nullptr);

    /** Callback invoked for every retired instruction (co-simulation). */
    void
    onRetire(std::function<void(const RobEntry &)> cb)
    {
        retireHook = std::move(cb);
    }

    /**
     * Attach a pipeline tracer (may be nullptr to detach) and hand it
     * the program's code base and this machine's front-end depths. Must
     * be done before the first cycle; tracing mid-run leaves earlier
     * instructions untraced. The tracer must outlive the run.
     */
    void
    attachTracer(trace::Tracer *t)
    {
        tracer = t;
        if (t)
            t->setGeometry(program.codeBase, config.fetchDecodeDepth,
                           config.renameDepth);
    }

    /**
     * Attach a host-time per-stage profiler (may be nullptr to detach;
     * must outlive the run). When detached each stage timer costs two
     * predicted branches.
     */
    void attachProfiler(HostProfiler *p) { profiler = p; }

    /**
     * Report every instruction still in flight to the attached tracer
     * (no-op without one). Call after a run that did not drain cleanly —
     * watchdog deadlock, cosim mismatch, cycle budget — so the tail of
     * the pipeline appears in the trace; then Tracer::finish().
     */
    void traceInFlight(const char *why);

    /**
     * Run until HALT retires, `max_cycles` more cycles elapse, or — when
     * `max_insts` is nonzero — `max_insts` more instructions retire
     * (see instLimitHit()). Both budgets count from this call, so a
     * second call on the same core gets budgets of its own; one past
     * the cycle counter's range means no limit. Statistics keep
     * counting across calls.
     * @return true if the program halted cleanly
     */
    bool run(Cycle max_cycles, std::uint64_t max_insts = 0);

    /** True when the last run() stopped on its own instruction budget
     * (distinguishes a budget stop from a cycle-budget or watchdog
     * abort). */
    bool instLimitHit() const { return limitHit; }

    /** Advance one cycle. */
    void cycle();

    /** True once HALT has retired (or the program ran off its code). */
    bool halted() const { return haltRetired; }

    /** True when run() aborted on the no-retirement-progress watchdog. */
    bool deadlocked() const { return coreStats.deadlockAborts != 0; }

    /** Cycles fast-forwarded by idle skipping (host-perf telemetry; not
     * a written statistic so stepped oracle-mode and idle-skipping
     * snapshots compare equal). Always 0 in oracle mode. */
    Cycle idleSkippedCycles() const { return idleSkipped; }

    /** Per-entry wakeup-bit vs pure-predicate checks performed (oracle
     * mode). */
    std::uint64_t wakeupOracleChecks() const { return oracleChecks; }

    /** Statistics. */
    const CoreStats &stats() const { return coreStats; }

    /**
     * Write the current value of every statistic of the core and its
     * subcomponents (memory hierarchy, fetch/predictor, LSQ) into
     * `snap`.
     */
    void writeStats(StatSnapshot &snap) const;

    /** The memory hierarchy (cache stats). */
    const MemHierarchy &memoryHierarchy() const { return hierarchy; }

    /** Committed memory state (inspection after a run). */
    const MemImage &committedMem() const { return commitMem; }

    /** The fetch engine (predictor stats). */
    const FetchEngine &fetchEngine() const { return fetch; }

  private:
    struct FrontEntry
    {
        FetchedInst fi;
        Cycle fetchedAt;
    };

    struct PendingFlush
    {
        Cycle at;
        std::uint64_t seq;
        std::uint64_t redirectPc;
    };

    void doFlushes();
    void doRetire();
    void doSelect();
    void doDispatch();
    unsigned pickScheduler(const Inst &inst, bool commit = true);
    void doFetch();

    void publishStoreAddr(RobEntry &e);
    bool loadMayIssue(std::uint64_t seq, const RobEntry &e);
    void issueInst(std::uint64_t seq);
    void flushAfter(const RobEntry &branch);
    void recordBypassStats(RobEntry &e);
    void recordTraceBypass(RobEntry &e);

    // Wakeup-array machinery (Figure 8 as an event-driven bitset).
    void produceAndWake(PhysReg r, const ProdAvail &p);
    void armDispatch(const RobEntry &e, SchedulerBank::SlotRef ref);
    void armWakeup(const RobEntry &e, SchedulerBank::SlotRef ref);
    void drainWakeupEvents();
    bool tryIssueWakeup(std::uint64_t seq);
    void attendEntry(std::uint64_t seq, SchedulerBank::SlotRef ref);
    void verifyWakeupOracle();
    bool operandsReadyPure(const RobEntry &e) const;
    bool holeClassPure(const RobEntry &e) const;
    void maybeSkipIdle(Cycle end, Cycle last_progress);
    void diagnoseDeadlock() const;

    const MachineConfig &config;
    const Program &program;

    MemImage commitMem;      //!< architecturally committed memory
    MemHierarchy hierarchy;
    FetchEngine fetch;
    RenameTable rename;
    PhysRegFile regs;
    Scoreboard scoreboard;
    Rob rob;
    SchedulerBank sched;
    LoadStoreQueue lsq;
    SamDecoder samDl1;

    /** Scheduler that dispatched the producer of each physical register
     * (dependence-aware steering heuristic; 0xff = unknown/retired). */
    std::vector<std::uint8_t> producerSched;

    StaticRing<FrontEntry> frontPipe;
    //! Repair snapshots of the control instructions in frontPipe, in
    //! order (fetch takes one per control instruction only).
    StaticRing<BpSnapshot> frontSnaps;
    //! Per ROB slot (Rob::slotOf): repair snapshot of an in-flight
    //! control instruction, moved here from frontSnaps at dispatch.
    std::vector<BpSnapshot> robSnaps;
    std::vector<PendingFlush> pendingFlushes;
    //! Reused fetch landing buffer (capacity retained across cycles).
    std::vector<FetchedInst> fetchBuf;

    CoreStats coreStats;
    std::function<void(const RobEntry &)> retireHook;
    trace::Tracer *tracer = nullptr; //!< optional; guarded at each hook
    HostProfiler *profiler = nullptr; //!< optional; see cycle()

    // ---------------------------------------------- wakeup-array state
    //
    // The in-core half of Figure 8: when a producer is selected, its
    // availability timeline is broadcast to the consumers waiting on its
    // register (`regWaiters`, the CAM match), and once a consumer knows
    // all of its producers, `armWakeup` ANDs their availPattern bits
    // into a handful of ready/hole bit-transition events on a
    // time-ordered heap. Slot-generation counters guard events against
    // slot reuse after issue or squash.

    /** One scheduled transition of a slot's ready bit (its hole bit
     * becomes the complement). */
    struct WakeupEvent
    {
        Cycle at = 0;
        SchedulerBank::SlotRef ref;
        std::uint32_t gen = 0; //!< slot generation at arm time
        bool ready = false;
    };

    struct EventLater
    {
        bool
        operator()(const WakeupEvent &a, const WakeupEvent &b) const
        {
            return a.at > b.at;
        }
    };

    /** The waiter mask of physical register r: bit s is set while the
     * entry in ROB slot s waits for r's producer to be selected. */
    std::uint64_t *waitersOf(PhysReg r)
    { return &regWaiters[std::size_t{r} * waitWords]; }

    std::priority_queue<WakeupEvent, std::vector<WakeupEvent>, EventLater>
        wakeupEvents;
    //! Slot-mask words per physical register (one bit per ROB slot).
    const unsigned waitWords;
    //! Per physical register, waitWords words of waiting ROB slots.
    std::vector<std::uint64_t> regWaiters;

    // Host-perf telemetry; deliberately NOT written statistics, so
    // oracle-mode and plain StatSnapshots stay bit-identical.
    Cycle idleSkipped = 0;
    std::uint64_t oracleChecks = 0;

    Cycle now = 0;
    unsigned classRr = 0; //!< round-robin cursor for ClassPartition
    std::uint64_t nextSeq = 1;
    bool haltRetired = false;
    //! coreStats.retired at which the current run() stops (0 = no
    //! budget); doRetire stops at the boundary.
    std::uint64_t instLimit = 0;
    bool limitHit = false;
    unsigned frontPipeCap;
    std::uint64_t samCheckCounter = 0;
};

} // namespace rbsim

#endif // RBSIM_CORE_CORE_HH
