/**
 * @file
 * Adder delay study (paper section 3.4): prints the unit-gate critical-
 * path model — redundant binary constant depth versus logarithmic CLA
 * and linear ripple growth, plus the converter cost — and then measures
 * host throughput of the arithmetic library's software models with
 * google-benchmark (bit-parallel adder, gate-level digit-slice chain,
 * normalization, conversions).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "common/rng.hh"
#include "rb/convert.hh"
#include "rb/digit_slice.hh"
#include "rb/carry_save.hh"
#include "rb/gatedelay.hh"
#include "rb/multiplier.hh"
#include "rb/rsd4.hh"
#include "rb/rbalu.hh"
#include "sim/report.hh"

#include "bench_common.hh"

namespace
{

using namespace rbsim;

void
printGateModel()
{
    std::printf("%s",
                banner("Section 3.4: adder critical-path model "
                       "(unit gate delays)").c_str());
    TextTable t;
    t.header({"width", "ripple", "CLA(r4)", "CSA", "RB adder", "SD(r4)",
              "RB->TC conv", "CLA/RB"});
    for (unsigned w : {8u, 16u, 32u, 64u, 128u}) {
        t.row({std::to_string(w), std::to_string(rippleAdderDepth(w)),
               std::to_string(claAdderDepth(w)),
               std::to_string(csaLevelDepth()),
               std::to_string(rbAdderDepth(w)),
               std::to_string(rsd4AdderDepth(w)),
               std::to_string(converterDepth(w)),
               std::to_string(double(claAdderDepth(w)) /
                              rbAdderDepth(w)).substr(0, 4)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("multiplier reduction tree (64x64): digit-direct %u "
                "levels deep, Booth-recoded %u (unit gates)\n",
                rbMulTreeDepth(64, false), rbMulTreeDepth(64, true));
    std::printf("paper: RB adder ~3x faster than a 64-bit CLA and ~2.7x "
                "faster than the RB->TC converter (Makino et al.); the "
                "RB depth is width-independent.\n");
    std::printf("staggered 2-stage adder per-stage depth (64-bit): %u "
                "(not half a full add: pipelining helps the clock, not "
                "the latency)\n\n",
                staggeredStageDepth(64));
}

void
BM_RbAddBitParallel(benchmark::State &state)
{
    Rng rng(7);
    RbNum a = RbNum::fromTc(rng.next());
    const RbNum b = RbNum::fromTc(rng.next());
    for (auto _ : state) {
        a = rbAdd(a, b).sum;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_RbAddBitParallel);

void
BM_RbAddDigitSliceChain(benchmark::State &state)
{
    Rng rng(8);
    RbNum a = RbNum::fromTc(rng.next());
    const RbNum b = RbNum::fromTc(rng.next());
    for (auto _ : state) {
        const RbRawSum raw = addBySlices(a, b);
        a = normalizeQuad(raw.digits, raw.carryOut).value;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_RbAddDigitSliceChain);

void
BM_TcToRbHardwired(benchmark::State &state)
{
    Rng rng(9);
    Word w = rng.next();
    for (auto _ : state) {
        RbNum x = RbNum::fromTc(w);
        benchmark::DoNotOptimize(x);
        w += 0x9e3779b9;
    }
}
BENCHMARK(BM_TcToRbHardwired);

void
BM_RbToTcConversion(benchmark::State &state)
{
    Rng rng(10);
    const RbNum x = rbAdd(RbNum::fromTc(rng.next()),
                          RbNum::fromTc(rng.next())).sum;
    for (auto _ : state) {
        Word w = x.toTc();
        benchmark::DoNotOptimize(w);
    }
}
BENCHMARK(BM_RbToTcConversion);

void
BM_RbToTcRippleModel(benchmark::State &state)
{
    Rng rng(11);
    const RbNum x = rbAdd(RbNum::fromTc(rng.next()),
                          RbNum::fromTc(rng.next())).sum;
    for (auto _ : state) {
        Word w = rbToTcRipple(x);
        benchmark::DoNotOptimize(w);
    }
}
BENCHMARK(BM_RbToTcRippleModel);

void
BM_SignTestMsdScan(benchmark::State &state)
{
    Rng rng(12);
    RbNum x = rbAdd(RbNum::fromTc(rng.next()),
                    RbNum::fromTc(rng.next())).sum;
    for (auto _ : state) {
        bool neg = x.signNegative();
        benchmark::DoNotOptimize(neg);
    }
}
BENCHMARK(BM_SignTestMsdScan);

/**
 * Host-throughput cells for the JSON dump: the CI --speed-gate lane
 * ratchets these against the committed baseline (the google-benchmark
 * run below stays human-facing). One cell per software model, machine
 * "hostmodel", sim_khz = kilo-operations per second.
 */
void
addThroughputCells(bench::BenchReport &report)
{
    using Clock = std::chrono::steady_clock;
    auto time = [](auto &&body) -> std::pair<std::uint64_t, double> {
        body();
        std::uint64_t iters = 0;
        const auto t0 = Clock::now();
        double sec = 0.0;
        do {
            for (int rep = 0; rep < 4096; ++rep)
                body();
            iters += 4096;
            sec = std::chrono::duration<double>(Clock::now() - t0)
                      .count();
        } while (sec < 0.02);
        return {iters, sec};
    };

    Rng rng(21);
    RbNum a = RbNum::fromTc(rng.next());
    const RbNum b = RbNum::fromTc(rng.next());
    Word w = rng.next();

    {
        const auto [ops, sec] = time([&] {
            a = rbAdd(a, b).sum;
            benchmark::DoNotOptimize(a);
        });
        report.addCell(
            bench::throughputCell("hostmodel", "rbadd", ops, sec));
    }
    {
        const auto [ops, sec] = time([&] {
            const RbRawSum raw = addBySlices(a, b);
            a = normalizeQuad(raw.digits, raw.carryOut).value;
            benchmark::DoNotOptimize(a);
        });
        report.addCell(
            bench::throughputCell("hostmodel", "slicechain", ops, sec));
    }
    {
        const auto [ops, sec] = time([&] {
            RbNum x = RbNum::fromTc(w);
            benchmark::DoNotOptimize(x);
            w += 0x9e3779b9;
        });
        report.addCell(
            bench::throughputCell("hostmodel", "tctorb", ops, sec));
    }
    {
        const auto [ops, sec] = time([&] {
            Word v = a.toTc();
            benchmark::DoNotOptimize(v);
        });
        report.addCell(
            bench::throughputCell("hostmodel", "rbtotc", ops, sec));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rbsim::bench;
    // Take the shared flags first; whatever is left belongs to
    // google-benchmark (e.g. --benchmark_filter).
    const BenchOptions opts = parseBenchArgs(argc, argv);
    printGateModel();

    BenchReport report("adder_delay", opts);
    addThroughputCells(report);
    for (unsigned w : {8u, 16u, 32u, 64u, 128u}) {
        const std::string suffix = "." + std::to_string(w);
        report.addMetric("depth.ripple" + suffix, rippleAdderDepth(w));
        report.addMetric("depth.cla" + suffix, claAdderDepth(w));
        report.addMetric("depth.rb" + suffix, rbAdderDepth(w));
        report.addMetric("depth.rsd4" + suffix, rsd4AdderDepth(w));
        report.addMetric("depth.converter" + suffix, converterDepth(w));
    }
    report.addMetric("depth.csa", csaLevelDepth());
    report.addMetric("depth.staggered_stage.64", staggeredStageDepth(64));
    report.write();

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
