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
    CosimChecker &checker = machine->checker;
    instBase = from ? from->instsExecuted : 0;
    cosimOn = opts.cosim;

    out.machine = cfg.label;
    out.workload = prog.name;
    out.halted = false;
    out.instLimited = false;
    core.attachTracer(opts.tracer);
    core.attachProfiler(opts.profiler);
    const std::uint64_t allocs0 = alloccount::threadCount();
    const auto t0 = std::chrono::steady_clock::now();
    try {
        if (opts.warmupInsts) {
            // Detailed-warmup leg: run, then zero the stats in place so
            // the measured window's counters (cycles included — and with
            // them core.ipc) cover only post-warmup work. Model state
            // stays warm. A program that halts or aborts during warmup
            // skips the measured leg; the caller sees it via
            // halted/instLimited.
            out.halted = core.run(opts.maxCycles, opts.warmupInsts);
            if (!out.halted && !core.deadlocked() &&
                core.instLimitHit()) {
                core.clearStats();
                checker.clearStats();
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

SimResult
simulate(const MachineConfig &cfg, const Program &prog,
         const SimOptions &opts)
{
    return Simulator(cfg).run(prog, opts);
}

} // namespace rbsim
