#include "sim/simulator.hh"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "common/alloccount.hh"

namespace rbsim
{

namespace
{

/** Trace label for the in-flight records of a run that threw; call only
 * from inside a handler (it rethrows the exception being handled). */
const char *
thrownCause()
{
    try {
        throw;
    } catch (const CosimMismatch &) {
        return "cosim-mismatch";
    } catch (const WakeupOracleMismatch &) {
        return "oracle-mismatch";
    } catch (...) {
        return "sim-exception";
    }
}

} // namespace

std::string
SimOptions::resultKey() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "mc=%" PRIu64 ";co=%d;mi=%" PRIu64 ";wu=%" PRIu64
                  ";ck=%016" PRIx64,
                  static_cast<std::uint64_t>(maxCycles), cosim ? 1 : 0,
                  maxInsts, warmupInsts,
                  startFrom ? startFrom->fingerprint() : 0);
    return std::string(buf);
}

Simulator::Simulator(const MachineConfig &cfg_)
    : cfg(cfg_), progHash(prog.hash())
{}

Simulator::Machine::Machine(const MachineConfig &cfg, const Program &prog,
                            std::uint64_t prog_hash,
                            const ArchCheckpoint *from, bool cosim)
    : core(cfg, prog, from), checker(prog, prog_hash, from)
{
    if (cosim)
        core.onRetire([this](const RobEntry &e) { checker.onRetire(e); });
    // Every component self-registers its statistics; the registry
    // stores pointers into the core/checker.
    core.registerStats(reg);
    checker.registerStats(statGroup(reg, "cosim"));
}

SimResult
Simulator::run(const Program &program, const SimOptions &opts)
{
    SimResult res;
    runInto(program, opts, res);
    return res;
}

void
Simulator::runInto(const Program &program, const SimOptions &opts,
                   SimResult &out)
{
    // The last run's machine goes first: it points at `prog`, and peak
    // memory then holds one machine.
    machine.reset();

    // Bind: a program of new content is copied in (copy-assignment
    // reuses the buffers when the shapes match) and hashed once. Equal
    // content keeps the copy and its hash; only the name, which is not
    // content, is refreshed.
    if (prog.sameContent(program)) {
        prog.name = program.name;
    } else {
        prog = program;
        progHash = prog.hash();
    }

    // The one start decision: the program entry or a checkpoint. The
    // core and the reference share its pages (the program's image or
    // the checkpoint's) copy-on-write.
    const ArchCheckpoint *from = opts.startFrom.get();
    if (from && from->progHash != progHash)
        throw std::invalid_argument(
            "checkpoint/program mismatch in Simulator::runInto");
    machine.emplace(cfg, prog, progHash, from, opts.cosim);
    OooCore &core = machine->core;
    instBase = from ? from->instsExecuted : 0;
    cosimOn = opts.cosim;

    out.machine = cfg.label;
    out.workload = prog.name;
    out.halted = false;
    out.instLimited = false;
    core.attachTracer(opts.tracer);
    core.attachProfiler(opts.profiler);
    std::optional<StatSnapshot> warm;
    const std::uint64_t allocs0 = alloccount::threadCount();
    const auto t0 = std::chrono::steady_clock::now();
    try {
        if (opts.warmupInsts) {
            // Detailed-warmup leg: run, then snapshot where the measured
            // window begins, so its statistics (cycles included — and
            // with them core.ipc) cover only post-warmup work. Model
            // state stays warm. A program that halts or aborts during
            // warmup skips the measured leg; the caller sees it via
            // halted/instLimited.
            out.halted = core.run(opts.maxCycles, opts.warmupInsts);
            if (!out.halted && !core.deadlocked() &&
                core.instLimitHit()) {
                warm = machine->reg.snapshot();
                out.halted = core.run(opts.maxCycles, opts.maxInsts);
            }
        } else {
            out.halted = core.run(opts.maxCycles, opts.maxInsts);
        }
        out.instLimited = core.instLimitHit();
    } catch (...) {
        // Cosim or wakeup-oracle mismatch mid-cycle: capture the
        // pipeline tail before the exception reaches the caller, and
        // detach the borrowed tracer/profiler so the kept machine
        // cannot dangle into them.
        if (opts.tracer) {
            core.traceInFlight(thrownCause());
            opts.tracer->finish();
        }
        core.attachTracer(nullptr);
        core.attachProfiler(nullptr);
        throw;
    }
    if (opts.tracer) {
        core.traceInFlight(out.halted       ? "post-halt"
                           : out.instLimited ? "inst-budget"
                                             : "run-aborted");
        opts.tracer->finish();
    }
    const auto t1 = std::chrono::steady_clock::now();
    out.hostSeconds = std::chrono::duration<double>(t1 - t0).count();
    if (opts.profiler) {
        opts.profiler->allocationsCounted =
            alloccount::hooked() && alloccount::enabled();
        opts.profiler->allocations = alloccount::threadCount() - allocs0;
    }
    core.attachTracer(nullptr);
    core.attachProfiler(nullptr);
    out.stats = machine->reg.snapshot();
    if (warm)
        out.stats = out.stats.since(*warm);
    deriveFormulas(out.stats);
}

void
Simulator::checkpoint(ArchCheckpoint &out) const
{
    if (!machine)
        throw std::logic_error("no run to checkpoint");
    if (!cosimOn)
        throw std::logic_error(
            "checkpoint capture needs the cosim reference (SimOptions::"
            "cosim) for exact retired architectural state");
    const OooCore &core = machine->core;
    const Interp &ref = machine->checker.ref();
    if (ref.halted())
        throw std::logic_error("cannot checkpoint a halted program");

    out = ArchCheckpoint{};
    out.progHash = progHash;
    out.pc = ref.pc();
    out.instsExecuted = instBase + ref.instsExecuted();
    for (unsigned r = 0; r < numArchRegs; ++r)
        out.regs[r] = ref.reg(r);
    out.pages = ref.mem().snapshotPages();

    const FetchEngine &fe = core.fetchEngine();
    out.bpred = fe.predictor.saveState();
    out.btb = fe.btb.entries();
    fe.ras.save(out.ras);
    const MemHierarchy &mh = core.memoryHierarchy();
    out.il1 = mh.il1().saveTags();
    out.dl1 = mh.dl1().saveTags();
    out.l2 = mh.l2().saveTags();
}

const MemImage &
Simulator::committedMem() const
{
    if (!machine)
        throw std::logic_error("no run to read memory from");
    return machine->core.committedMem();
}

void
deriveFormulas(StatSnapshot &s)
{
    static const struct
    {
        const char *name, *num, *den;
    } ratios[] = {
        {"core.ipc", "core.retired", "core.cycles"},
        {"core.issueWaitMean", "core.issueWaitSum", "core.retired"},
        {"il1.missRate", "il1.misses", "il1.accesses"},
        {"dl1.missRate", "dl1.misses", "dl1.accesses"},
        {"l2.missRate", "l2.misses", "l2.accesses"},
    };
    for (const auto &r : ratios) {
        if (s.counters.count(r.den))
            s.formulas[r.name] = s.ratio(r.num, r.den);
    }
    // With no conditional branch retired, none was mispredicted.
    if (s.counters.count("core.condBranches"))
        s.formulas["core.branchAccuracy"] =
            1.0 - s.ratio("core.condMispredicts", "core.condBranches");
}

SimResult
simulate(const MachineConfig &cfg, const Program &prog,
         const SimOptions &opts)
{
    return Simulator(cfg).run(prog, opts);
}

} // namespace rbsim
