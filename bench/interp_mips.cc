/**
 * @file
 * Functional-interpreter throughput micro-benchmark
 * (docs/PERFORMANCE.md §8): host MIPS of every architectural execution
 * path, measured over a fixed set of workload-generator programs:
 *
 *   reference       decode-every-step oracle (Interp::stepReference)
 *   step            predecoded single-step with full StepRecord
 *                   materialization (the co-simulation path)
 *   runfast         record-free threaded-dispatch loop (Interp::runFast)
 *                   — this is what sim/fastfwd drives
 *   fastfwd         FastForward: runfast + cache/predictor warming sink
 *
 * Results go into the shared "rbsim-bench-1" JSON (--json) as synthetic
 * cells: machine = path name, workload = generator preset, sim_khz =
 * kilo instructions per second (so MIPS = sim_khz / 1e3), which is what
 * the CI --speed-gate lane ratchets against the committed
 * BENCH_interp_mips.json baseline. The committed baseline also carries
 * the pre-predecode "reference" rows, so the tentpole speedup claim
 * (runfast >= 3x reference) is checkable from one file; the
 * "runfast_over_reference_hmean" summary metric states it directly.
 */

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/strutil.hh"
#include "core/machine_config.hh"
#include "func/interp.hh"
#include "func/predecode.hh"
#include "sim/fastfwd.hh"
#include "sim/report.hh"
#include "workloads/gen/opstream.hh"
#include "workloads/workload.hh"

#include "bench_common.hh"

namespace
{

using namespace rbsim;
using Clock = std::chrono::steady_clock;

/** Programs benchmarked: two paper workloads (what sampling campaigns
 * actually fast-forward through) plus the generator presets the
 * predecode parity tests lockstep — a skewed key-value mix, a
 * dependent pointer chase, a half-taken branch sweep, and the
 * RB-adversarial carry chains. */
struct Bench
{
    const char *name;
    bool gen; //!< generator preset vs named paper workload
};
const Bench benches[] = {{"compress", false}, {"go", false},
                         {"ycsb-a", true},    {"chase-dl1", true},
                         {"branch-0.50", true}, {"rb-adversarial", true}};

/** Instructions per measurement slice between halt checks / restarts. */
constexpr std::uint64_t sliceInsts = 1u << 20;
/** Minimum wall time per cell for a stable rate. */
constexpr double minSeconds = 0.25;

/** Keeps architectural results observable. */
std::uint64_t g_sink = 0;

/**
 * Time `body` — which executes up to sliceInsts instructions and
 * returns how many actually ran (resetting itself on HALT) — in
 * independent slices until enough wall time has accumulated, and
 * report the *fastest* slice: on shared/noisy hosts the best observed
 * rate is the stable estimator (preemption and frequency dips only
 * ever slow a slice down), the same reasoning as taking the minimum
 * time in repetition-based benchmark harnesses.
 * Returns {insts, seconds} of that best slice.
 */
template <typename F>
std::pair<std::uint64_t, double>
measure(F &&body)
{
    body(); // warm up: predecode cache, first-touch pages
    std::uint64_t bestInsts = 0;
    double bestSec = 1.0;
    double total = 0.0;
    do {
        const auto t0 = Clock::now();
        const std::uint64_t insts = body();
        const double sec =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (insts > 0 && sec > 0.0 &&
            double(insts) / sec > double(bestInsts) / bestSec) {
            bestInsts = insts;
            bestSec = sec;
        }
        total += sec;
    } while (total < minSeconds);
    return {bestInsts, bestSec};
}

/** One stepper-loop cell: run `step` one instruction at a time. */
template <typename StepFn>
std::pair<std::uint64_t, double>
measureStepper(const Program &prog, StepFn &&step)
{
    const std::uint64_t hash = prog.hash();
    Interp interp(prog, hash);
    return measure([&] {
        std::uint64_t done = 0;
        while (done < sliceInsts) {
            if (interp.halted()) {
                g_sink ^= interp.reg(1);
                interp = Interp(prog, hash);
            }
            g_sink ^= step(interp).regValue;
            ++done;
        }
        return done;
    });
}

struct Row
{
    std::string workload;
    double referenceMips = 0.0;
    double stepMips = 0.0;
    double runfastMips = 0.0;
    double fastfwdMips = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace rbsim::bench;
    const BenchOptions opts = parseBenchArgs(argc, argv);
    (void)argc;
    (void)argv;

    BenchReport report("interp_mips", opts);
    std::vector<Row> rows;

    std::printf("%s",
                banner("Functional interpreter throughput (MIPS), "
                       "dispatch: " +
                       std::string(dispatchName()))
                    .c_str());

    // Warming sink geometry for the fastfwd row: the 4-wide baseline.
    const MachineConfig ffCfg =
        MachineConfig::make(MachineKind::Baseline, 4);

    double speedupHmeanDen = 0.0;
    for (const Bench &b : benches) {
        const Program prog =
            b.gen ? gen::buildGenProgram(gen::genPreset(b.name),
                                         WorkloadParams{})
                  : findWorkload(b.name).build(WorkloadParams{});
        Row row;
        row.workload = b.name;
        auto cell = [&](const char *machine, double &mips,
                        std::pair<std::uint64_t, double> m) {
            report.addCell(
                throughputCell(machine, b.name, m.first, m.second));
            mips = double(m.first) / m.second / 1e6;
        };

        cell("reference", row.referenceMips,
             measureStepper(prog, [](Interp &i) {
                 return i.stepReference();
             }));
        cell("step", row.stepMips, measureStepper(prog, [](Interp &i) {
                 return i.step();
             }));
        cell("runfast", row.runfastMips, [&] {
            const std::uint64_t hash = prog.hash();
            Interp interp(prog, hash);
            return measure([&] {
                if (interp.halted()) {
                    g_sink ^= interp.reg(1);
                    interp = Interp(prog, hash);
                }
                return interp.runFast(sliceInsts);
            });
        }());
        cell("fastfwd", row.fastfwdMips, [&] {
            std::optional<FastForward> ff(std::in_place, ffCfg, prog);
            return measure([&] {
                if (ff->halted())
                    ff.emplace(ffCfg, prog);
                return ff->run(sliceInsts);
            });
        }());

        speedupHmeanDen += row.referenceMips / row.runfastMips;
        rows.push_back(row);
    }

    TextTable t;
    t.header({"workload", "reference", "step", "runfast", "fastfwd",
              "runfast/ref"});
    for (const Row &r : rows) {
        t.row({r.workload, fmtDouble(r.referenceMips, 1),
               fmtDouble(r.stepMips, 1), fmtDouble(r.runfastMips, 1),
               fmtDouble(r.fastfwdMips, 1),
               fmtDouble(r.runfastMips / r.referenceMips, 2) + "x"});
    }
    std::printf("%s", t.render().c_str());

    const double hmean = double(std::size(benches)) / speedupHmeanDen;
    std::printf("runfast over reference (hmean): %.2fx\n", hmean);
    report.addMetric("runfast_over_reference_hmean", hmean);
    if (g_sink == 0xdeadbeefcafebabeull)
        std::printf("\n"); // keep g_sink and the loops alive

    report.write();
    return 0;
}
