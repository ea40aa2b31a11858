#include "fuzz/oracle.hh"

#include <bit>
#include <cctype>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "rb/convert.hh"
#include "rb/digit_slice.hh"
#include "rb/rbalu.hh"
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

/** Operand patterns for the value-level oracles: uniform draws alone
 * rarely land on overflow boundaries, small counts, or 32-bit edges. */
Word
patternedWord(Rng &rng)
{
    switch (rng.below(6)) {
      case 0:
        return rng.next();
      case 1: // large magnitude (overflow-prone)
        return rng.next() | 0xc000000000000000ull;
      case 2: // small signed
        return static_cast<Word>(rng.range(-512, 511));
      case 3: // around a single power of two
        return (Word{1} << rng.below(64)) +
               static_cast<Word>(rng.range(-1, 1));
      case 4: // int64 extremes
        return (rng.chance(1, 2) ? 0x7fffffffffffffffull
                                 : 0x8000000000000000ull) +
               static_cast<Word>(rng.range(-2, 2));
      default: // 32-bit boundary neighborhood
        return static_cast<Word>(static_cast<SWord>(
            static_cast<std::int32_t>(rng.next())));
    }
}

/** Canonical or randomized redundant encoding of a value. */
RbNum
encodingOf(Word w, Rng &rng)
{
    if (rng.chance(1, 2))
        return RbNum::fromTc(w);
    return redundantEncodingOf(w, rng,
                               static_cast<unsigned>(rng.below(96)));
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
    bool programLevel() const override { return true; }

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
    bool programLevel() const override { return true; }

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
    bool programLevel() const override { return true; }

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

// ------------------------------------------------------------- rbalu

class RbAluOracle : public Oracle
{
  public:
    using Oracle::Oracle;

    std::string name() const override { return "rbalu"; }
    bool programLevel() const override { return false; }

    OracleResult
    runSeed(std::uint64_t seed, std::uint64_t iters) const override
    {
        Rng rng(seed);
        for (std::uint64_t i = 0; i < iters; ++i) {
            const Word a = patternedWord(rng);
            const Word b = patternedWord(rng);
            const RbNum x = encodingOf(a, rng);
            const RbNum y = encodingOf(b, rng);

            auto fail = [&](const std::string &what) -> OracleResult {
                return {true, "seed " + std::to_string(seed) + " iter " +
                            std::to_string(i) + ": " + what + " for a=" +
                            hex(a) + " b=" + hex(b)};
            };
            auto checkResult = [&](const char *opname,
                                   const RbAddResult &r,
                                   Word expect, __int128 wide)
                -> OracleResult {
                if (r.sum.toTc() != expect) {
                    return fail(std::string(opname) + " value " +
                                hex(r.sum.toTc()) + " != " + hex(expect));
                }
                const bool ovf =
                    wide < -(static_cast<__int128>(1) << 63) ||
                    wide >= (static_cast<__int128>(1) << 63);
                if (r.tcOverflow != ovf) {
                    return fail(std::string(opname) + " overflow flag " +
                                std::to_string(r.tcOverflow));
                }
                if (r.sum.signNegative() !=
                    (static_cast<SWord>(expect) < 0)) {
                    return fail(std::string(opname) + " sign scan");
                }
                if (r.sum.isZero() != (expect == 0))
                    return fail(std::string(opname) + " zero test");
                if (r.sum.lsbSet() != ((expect & 1) != 0))
                    return fail(std::string(opname) + " LSB test");
                const unsigned tz = expect == 0
                    ? 64u
                    : static_cast<unsigned>(std::countr_zero(expect));
                if (rbCttz(r.sum) != tz)
                    return fail(std::string(opname) + " trailing zeros");
                return {};
            };

            const __int128 sa = static_cast<SWord>(a);
            const __int128 sb = static_cast<SWord>(b);
            OracleResult r =
                checkResult("add", rbAdd(x, y), a + b, sa + sb);
            if (r.failed)
                return r;
            r = checkResult("sub", rbSub(x, y), a - b, sa - sb);
            if (r.failed)
                return r;
            // The digit shift re-signs the MSD (section 3.5), so the
            // scaled add computes wrapped(a << s) + b and its overflow
            // flag is relative to the wrapped shifted addend.
            const unsigned scale = rng.chance(1, 2) ? 2 : 3;
            const __int128 sshift =
                static_cast<SWord>(a << scale);
            r = checkResult("scaledadd", rbScaledAdd(x, scale, y),
                            (a << scale) + b, sshift + sb);
            if (r.failed)
                return r;

            const unsigned k = static_cast<unsigned>(rng.below(64));
            const RbNum sh = rbShiftLeftDigits(x, k);
            if (sh.toTc() != a << k)
                return fail("digit shift by " + std::to_string(k));
            if (sh.signNegative() !=
                (static_cast<SWord>(a << k) < 0)) {
                return fail("digit-shift sign scan by " +
                            std::to_string(k));
            }
        }
        return {};
    }
};

// ------------------------------------------------------------- slice

class SliceOracle : public Oracle
{
  public:
    using Oracle::Oracle;

    std::string name() const override { return "slice"; }
    bool programLevel() const override { return false; }

    OracleResult
    runSeed(std::uint64_t seed, std::uint64_t iters) const override
    {
        Rng rng(seed);
        for (std::uint64_t i = 0; i < iters; ++i) {
            // A random-length batch (including the n=0 and n=64 edges)
            // of arbitrary legal digit planes — the whole encoding
            // space, not just reachable ALU outputs. Each lane is
            // checked three ways: scalar gate chain vs bit-parallel
            // arithmetic, and the bit-sliced batch vs both.
            const std::size_t n = static_cast<std::size_t>(rng.below(65));
            std::uint64_t xp[64], xm[64], yp[64], ym[64];
            std::uint64_t sp[64], sm[64];
            std::int8_t co[64];
            for (std::size_t j = 0; j < n; ++j) {
                xp[j] = rng.next();
                xm[j] = rng.next() & ~xp[j];
                yp[j] = rng.next();
                ym[j] = rng.next() & ~yp[j];
            }
            addBySlicesBatch(xp, xm, yp, ym, sp, sm, co, n);

            for (std::size_t j = 0; j < n; ++j) {
                const RbNum x(xp[j], xm[j]);
                const RbNum y(yp[j], ym[j]);
                auto fail = [&](const char *what) -> OracleResult {
                    return {true, "seed " + std::to_string(seed) +
                                " iter " + std::to_string(i) + " lane " +
                                std::to_string(j) + ": " + what +
                                " for x=(" + hex(x.plus()) + "," +
                                hex(x.minus()) + ") y=(" + hex(y.plus()) +
                                "," + hex(y.minus()) + ")"};
                };

                const RbRawSum gate = addBySlices(x, y);
                const RbRawSum arith = rbAddRaw(x, y);
                if (!(gate.digits == arith.digits) ||
                    gate.carryOut != arith.carryOut)
                    return fail("digit-slice adder diverges");
                if ((sp[j] & sm[j]) != 0)
                    return fail("batched slice illegal digit planes");
                if (sp[j] != gate.digits.plus() ||
                    sm[j] != gate.digits.minus() ||
                    co[j] != gate.carryOut)
                    return fail("batched slice diverges from gate chain");
            }
        }
        return {};
    }
};

// --------------------------------------------------------- roundtrip

class RoundTripOracle : public Oracle
{
  public:
    using Oracle::Oracle;

    std::string name() const override { return "roundtrip"; }
    bool programLevel() const override { return false; }

    OracleResult
    runSeed(std::uint64_t seed, std::uint64_t iters) const override
    {
        Rng rng(seed);
        for (std::uint64_t i = 0; i < iters; ++i) {
            const Word w = patternedWord(rng);
            auto fail = [&](const std::string &what) -> OracleResult {
                return {true, "seed " + std::to_string(seed) + " iter " +
                            std::to_string(i) + ": " + what + " for w=" +
                            hex(w)};
            };
            for (unsigned e = 0; e < 4; ++e) {
                const RbNum enc = redundantEncodingOf(
                    w, rng, static_cast<unsigned>(rng.below(128)));
                if ((enc.plus() & enc.minus()) != 0)
                    return fail("illegal digit encoding");
                if (enc.toTc() != w)
                    return fail("TC->RB->TC fast conversion");
                if (rbToTcRipple(enc) != w)
                    return fail("TC->RB->TC ripple subtractor");
                if (enc.isZero() != (w == 0))
                    return fail("zero test on redundant encoding");
                if (enc.signNegative() != (static_cast<SWord>(w) < 0))
                    return fail("sign scan on redundant encoding");
                if (enc.lsbSet() != ((w & 1) != 0))
                    return fail("LSB test on redundant encoding");
                const unsigned tz = w == 0
                    ? 64u
                    : static_cast<unsigned>(std::countr_zero(w));
                if (enc.trailingZeroDigits() != tz)
                    return fail("trailing-zero count");
            }
            // Longword conversion keeps the 32-bit sign (section 3.6).
            const std::uint32_t lo =
                static_cast<std::uint32_t>(w);
            const Word sext = static_cast<Word>(static_cast<SWord>(
                static_cast<std::int32_t>(lo)));
            if (RbNum::fromTcLong(lo).toTc() != sext)
                return fail("longword conversion");
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

std::vector<MachineConfig>
Oracle::pickConfigs(Rng &) const
{
    return {};
}

OracleResult
Oracle::runProgram(const Program &, const std::vector<MachineConfig> &)
    const
{
    return {true, name() + " is not a program-level oracle"};
}

OracleResult
Oracle::runSeed(std::uint64_t, std::uint64_t) const
{
    return {true, name() + " is not a value-level oracle"};
}

std::vector<std::string>
oracleNames()
{
    return {"cosim", "sched", "rbalu", "slice", "roundtrip"};
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
        } else if (n == "rbalu") {
            out.push_back(std::make_unique<RbAluOracle>(plant));
        } else if (n == "slice") {
            out.push_back(std::make_unique<SliceOracle>(plant));
        } else if (n == "roundtrip") {
            out.push_back(std::make_unique<RoundTripOracle>(plant));
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
