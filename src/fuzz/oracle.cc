#include "fuzz/oracle.hh"

#include <cctype>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "sim/cosim.hh"
#include "sim/fastfwd.hh"
#include "sim/simulator.hh"
#include "trace/tracer.hh"

namespace rbsim::fuzz
{

namespace
{

/** Cycle budget per simulated machine; generated programs retire within
 * a small fraction of this, so hitting it means a real stall. */
constexpr Cycle fuzzMaxCycles = 5'000'000;

/** Sandbox words compared across machines. */
constexpr unsigned checksumWords = 64;

std::string
hex(Word w)
{
    std::ostringstream os;
    os << "0x" << std::hex << w;
    return os.str();
}

/** Machine label as a filename fragment. */
std::string
fileTag(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '_' && c != '.') {
            c = '-';
        }
    }
    return out;
}

/**
 * Arms one simulated machine run with the trace sinks a TraceSpec asks
 * for, and renders the failure artifacts. Inert (all no-ops) when the
 * spec is disabled, so untraced fuzzing pays nothing.
 */
class TraceRun
{
  public:
    TraceRun(const TraceSpec &spec_, const MachineConfig &cfg)
        : spec(spec_)
    {
        if (!spec.enabled())
            return;
        trace::Tracer::Options topts;
        if (!spec.streamPath.empty()) {
            streamFile = spec.streamPath + "." + fileTag(cfg.label);
            out.open(streamFile);
            if (out)
                topts.stream = &out;
        }
        topts.ringCap = spec.ringLast;
        tracer = std::make_unique<trace::Tracer>(topts);
    }

    /** The tracer for SimOptions::tracer (nullptr when disabled); the
     * run settles it. */
    trace::Tracer *get() const { return tracer.get(); }

    /** Dump the ring buffer and name every artifact written; the return
     * value is appended to the oracle's failure detail. */
    std::string
    noteFailure()
    {
        std::string note;
        if (!tracer)
            return note;
        if (spec.ringLast && !spec.ringPath.empty()) {
            std::ofstream ring(spec.ringPath);
            ring << tracer->renderRing();
            note += " [pipeline ring: " + spec.ringPath + "]";
        }
        if (!streamFile.empty())
            note += " [pipeline trace: " + streamFile + "]";
        return note;
    }

  private:
    TraceSpec spec;
    std::string streamFile;
    std::ofstream out;
    std::unique_ptr<trace::Tracer> tracer;
};

// ------------------------------------------------------------- cosim

class CosimOracle : public Oracle
{
  public:
    using Oracle::Oracle;

    std::string name() const override { return "cosim"; }

    std::vector<MachineConfig>
    pickConfigs(Rng &rng) const override
    {
        return randomConfigSet(rng);
    }

    OracleResult
    runProgram(const Program &prog,
               const std::vector<MachineConfig> &configs) const override
    {
        if (maxInsts || resumeSkip)
            return runWindowed(prog, configs);
        std::vector<Word> golden;
        for (const MachineConfig &cfg : configs) {
            TraceRun tr(traceSpec, cfg);
            SimOptions opts;
            opts.maxCycles = fuzzMaxCycles;
            opts.tracer = tr.get();
            Simulator sim(cfg);
            SimResult r;
            try {
                r = sim.run(prog, opts);
            } catch (const CosimMismatch &e) {
                return {true,
                        cfg.label + ": " + e.what() + tr.noteFailure()};
            }
            if (!r.halted) {
                return {true, cfg.label + ": no clean halt (" +
                            (r.counter("core.deadlockAborts")
                                 ? "retirement deadlock watchdog"
                                 : "cycle budget exhausted") + ")" +
                            tr.noteFailure()};
            }
            const std::uint64_t checked = r.counter("cosim.checked");
            const std::uint64_t retired = r.counter("core.retired");
            if (checked != retired) {
                return {true, cfg.label + ": checked " +
                            std::to_string(checked) + " of " +
                            std::to_string(retired) + " retired" +
                            tr.noteFailure()};
            }

            std::vector<Word> mem(checksumWords);
            for (unsigned i = 0; i < checksumWords; ++i)
                mem[i] = sim.committedMem().read64(
                    fuzzSandboxBase + Addr{i} * 8);
            if (golden.empty()) {
                golden = std::move(mem);
            } else {
                for (unsigned i = 0; i < checksumWords; ++i) {
                    if (mem[i] != golden[i]) {
                        return {true, cfg.label +
                                    ": final memory diverges from " +
                                    configs.front().label + " at word " +
                                    std::to_string(i) + ": " +
                                    hex(mem[i]) + " vs " +
                                    hex(golden[i]) + tr.noteFailure()};
                    }
                }
            }
        }
        return {};
    }

  private:
    /**
     * The --max-insts / --resume-skip replay mode: per machine,
     * fast-forward `resumeSkip` instructions functionally (checkpoint
     * capture + resume, the sampling engine's own discipline), then run
     * the detailed pipeline under full lockstep co-simulation for at
     * most `maxInsts` retired instructions. The cross-machine sandbox
     * compare of the full-run mode is skipped: an instruction budget
     * can cut different machines mid-cycle at slightly different points
     * past the budget (retire width differs), so their final images are
     * not comparable — the per-instruction cosim check is the oracle
     * here. Pipeline tracing is likewise a full-run-only feature.
     */
    OracleResult
    runWindowed(const Program &prog,
                const std::vector<MachineConfig> &configs) const
    {
        for (const MachineConfig &cfg : configs) {
            SimOptions opts;
            opts.maxCycles = fuzzMaxCycles;
            opts.cosim = true;
            opts.maxInsts = maxInsts;
            if (resumeSkip) {
                FastForward ff(cfg, prog);
                try {
                    ff.run(resumeSkip);
                } catch (const InterpError &e) {
                    return {true, cfg.label +
                                ": fast-forward fault: " + e.what()};
                }
                if (ff.halted())
                    continue; // window lies past the program's end
                auto ck = std::make_shared<ArchCheckpoint>();
                ff.capture(*ck);
                opts.startFrom = std::move(ck);
            }
            try {
                const SimResult r = simulate(cfg, prog, opts);
                if (!r.halted && !r.instLimited) {
                    return {true, cfg.label +
                                ": no clean halt in replay window "
                                "(cycle budget exhausted or watchdog "
                                "abort)"};
                }
            } catch (const CosimMismatch &e) {
                return {true, cfg.label + ": " + e.what()};
            }
        }
        return {};
    }
};

/** Plant::CosimOpcodePair stand-in: "fails" exactly when the program
 * contains both a MULQ and an STQ. Deterministic and simulation-free —
 * the shrinker tests reduce against it. */
class PlantedOpcodePairOracle : public Oracle
{
  public:
    using Oracle::Oracle;

    std::string name() const override { return "cosim"; }

    std::vector<MachineConfig>
    pickConfigs(Rng &rng) const override
    {
        return {randomConfig(rng)};
    }

    OracleResult
    runProgram(const Program &prog,
               const std::vector<MachineConfig> &) const override
    {
        bool mul = false, stq = false;
        for (const Inst &inst : prog.code) {
            mul = mul || inst.op == Opcode::MULQ;
            stq = stq || inst.op == Opcode::STQ;
        }
        if (mul && stq)
            return {true, "planted: program contains MULQ and STQ"};
        return {};
    }
};

// ------------------------------------------------------------- sched

class SchedOracle : public Oracle
{
  public:
    using Oracle::Oracle;

    std::string name() const override { return "sched"; }

    std::vector<MachineConfig>
    pickConfigs(Rng &rng) const override
    {
        if (plant == Plant::SchedBypassWiden) {
            // Detection needs a non-full mask for the widening to change.
            return {MachineConfig::makeIdealLimited(
                rng.chance(1, 2) ? 4 : 8,
                static_cast<std::uint8_t>(1 + rng.below(6)))};
        }
        return {randomConfig(rng)};
    }

    OracleResult
    runProgram(const Program &prog,
               const std::vector<MachineConfig> &configs) const override
    {
        if (configs.empty())
            return {true, "sched oracle needs one config"};
        // The reference steps every cycle and checks every latched
        // wakeup bit against its predicate; the plain run idle-skips.
        MachineConfig checked = configs.front();
        checked.wakeupOracle = true;
        MachineConfig plain = configs.front();
        plain.wakeupOracle = false;
        if (plant == Plant::SchedBypassWiden)
            plain.bypassLevelMask = 0b111; // the silently widened network

        // Trace the checked run: an oracle mismatch stops it mid-cycle,
        // and its ring shows what was in flight at the divergence.
        TraceRun tr(traceSpec, checked);
        SimOptions opts;
        opts.maxCycles = fuzzMaxCycles;
        opts.tracer = tr.get();
        SimOptions popts = opts;
        popts.tracer = nullptr;
        try {
            const SimResult c = simulate(checked, prog, opts);
            const SimResult p = simulate(plain, prog, popts);
            if (c.halted != p.halted) {
                return {true, configs.front().label +
                            ": halt disagreement (oracle=" +
                            std::to_string(c.halted) + " plain=" +
                            std::to_string(p.halted) + ")" +
                            tr.noteFailure()};
            }
            const std::string diff = snapshotDiff(c.stats, p.stats);
            if (!diff.empty()) {
                return {true, configs.front().label +
                            ": snapshot divergence — " + diff +
                            tr.noteFailure()};
            }
        } catch (const std::runtime_error &e) {
            // CosimMismatch or WakeupOracleMismatch.
            return {true, configs.front().label + ": " + e.what() +
                        tr.noteFailure()};
        }
        return {};
    }
};

} // namespace

// ------------------------------------------------------------ shared

Plant
parsePlant(const std::string &name)
{
    if (name.empty() || name == "none")
        return Plant::None;
    if (name == "sched-bypass-widen")
        return Plant::SchedBypassWiden;
    if (name == "cosim-opcode-pair")
        return Plant::CosimOpcodePair;
    throw std::invalid_argument("unknown plant '" + name + "'");
}

std::vector<std::string>
oracleNames()
{
    return {"cosim", "sched"};
}

std::vector<std::unique_ptr<Oracle>>
makeOracles(const std::vector<std::string> &names, Plant plant,
            const TraceSpec &spec)
{
    std::vector<std::string> want = names;
    if (want.empty())
        want = oracleNames();

    std::vector<std::unique_ptr<Oracle>> out;
    for (const std::string &n : want) {
        if (n == "cosim") {
            if (plant == Plant::CosimOpcodePair)
                out.push_back(
                    std::make_unique<PlantedOpcodePairOracle>(plant));
            else
                out.push_back(std::make_unique<CosimOracle>(plant));
        } else if (n == "sched") {
            out.push_back(std::make_unique<SchedOracle>(plant));
        } else {
            throw std::invalid_argument("unknown oracle '" + n + "'");
        }
    }
    for (auto &o : out)
        o->setTrace(spec);
    return out;
}

std::string
snapshotDiff(const StatSnapshot &a, const StatSnapshot &b)
{
    for (const auto &[name, va] : a.counters) {
        const auto it = b.counters.find(name);
        if (it == b.counters.end())
            return "counter " + name + " missing on one side";
        if (it->second != va) {
            return "counter " + name + ": a=" + std::to_string(va) +
                   " b=" + std::to_string(it->second);
        }
    }
    if (b.counters.size() != a.counters.size())
        return "counter sets differ in size";
    for (const auto &[name, va] : a.vectors) {
        const auto it = b.vectors.find(name);
        if (it == b.vectors.end() || it->second != va)
            return "vector " + name + " differs";
    }
    if (b.vectors.size() != a.vectors.size())
        return "vector sets differ in size";
    for (const auto &[name, va] : a.formulas) {
        const auto it = b.formulas.find(name);
        if (it == b.formulas.end() || it->second != va)
            return "formula " + name + " differs";
    }
    if (b.formulas.size() != a.formulas.size())
        return "formula sets differ in size";
    return "";
}

} // namespace rbsim::fuzz
