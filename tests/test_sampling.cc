/**
 * @file
 * SMARTS-style sampling (src/sim/sampling.hh, src/serve/sampled.hh):
 *  - checkpoint collection lands on the systematic sampling grid and
 *    reports the true functional stream length;
 *  - the 95% CI math matches hand-computed Student t values;
 *  - merged window stats are sums with formulas derived as ratios of
 *    sums, and a pinned compress campaign keeps every bit;
 *  - THE ACCEPTANCE CHECK: a sampled run and a full-detail run of the
 *    same workload agree on IPC within the sampled run's reported 95%
 *    CI, across the Figure 12 machine grid;
 *  - a campaign sharded across four workers of the SimService pool
 *    merges to exactly the numbers of the same campaign on one worker;
 *  - windows stream to the pool during the fast-forward pass, and a
 *    pass that throws after windows were submitted reaches the caller
 *    without ever running the completion callback.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "common/json.hh"
#include "func/interp.hh"
#include "isa/builder.hh"
#include "serve/sampled.hh"
#include "serve/service.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace rbsim
{
namespace
{

Program
testProgram(const char *workload = "compress")
{
    WorkloadParams wp;
    return findWorkload(workload).build(wp);
}

/** Dynamic (architectural) instruction count of a program. */
std::uint64_t
dynLength(const Program &prog)
{
    Interp interp(prog);
    while (!interp.halted())
        interp.run(1u << 20);
    return interp.instsExecuted();
}

/** A whole campaign through the one campaign driver, serve::runSampled,
 * on a fresh one-worker service with no result cache (every window
 * executes). Rethrows a fast-forward fault. */
SampledResult
runCampaign(const MachineConfig &cfg, const Program &prog,
            const SamplingOptions &opts)
{
    serve::SimService service(
        serve::SimService::Options{/*workers=*/1, /*cacheCapacity=*/0});
    serve::SampledOutcome out =
        serve::runSampled(service, cfg, prog, opts);
    EXPECT_TRUE(out.ok) << out.error;
    return std::move(out.result);
}

/** A regimen scaled to the program: ~`windows` windows, half of each
 * period measured after a quarter-period detailed warmup. */
SamplingOptions
regimenFor(std::uint64_t len, std::uint64_t windows)
{
    SamplingOptions opts;
    opts.periodInsts = std::max<std::uint64_t>(len / windows, 64);
    opts.warmupInsts = opts.periodInsts / 4;
    opts.measureInsts = opts.periodInsts / 2;
    return opts;
}

// ------------------------------------------------ checkpoint schedule

TEST(CheckpointCollection, LandsOnTheSamplingGrid)
{
    const Program prog = testProgram();
    const std::uint64_t len = dynLength(prog);
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);

    SamplingOptions opts;
    opts.skipInsts = 500;
    opts.periodInsts = 3000;
    std::uint64_t ffInsts = 0;
    bool completed = false;
    const auto points =
        collectCheckpoints(cfg, prog, opts, &ffInsts, &completed);

    ASSERT_FALSE(points.empty());
    EXPECT_EQ(points.size(), (len - opts.skipInsts + opts.periodInsts - 1) /
                                 opts.periodInsts);
    for (std::size_t k = 0; k < points.size(); ++k)
        EXPECT_EQ(points[k]->instsExecuted,
                  opts.skipInsts + k * opts.periodInsts);
    EXPECT_EQ(ffInsts, len) << "must report the true stream length";
    EXPECT_TRUE(completed);
}

TEST(CheckpointCollection, WindowCapStopsEarly)
{
    const Program prog = testProgram();
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);
    SamplingOptions opts;
    opts.periodInsts = 1000;
    opts.maxWindows = 3;
    const auto points = collectCheckpoints(cfg, prog, opts);
    EXPECT_EQ(points.size(), 3u);
}

// ------------------------------------------------------------ CI math

TEST(Ci95, MatchesStudentT)
{
    EXPECT_EQ(ci95HalfWidth({}), 0.0);
    EXPECT_EQ(ci95HalfWidth({1.0}), 0.0);

    // n = 3: mean 2, sample sd 1, t(0.975, df=2) = 4.303.
    const double ci3 = ci95HalfWidth({1.0, 2.0, 3.0});
    EXPECT_NEAR(ci3, 4.303 / std::sqrt(3.0), 1e-9);

    // Zero variance collapses the interval.
    EXPECT_EQ(ci95HalfWidth({2.5, 2.5, 2.5, 2.5}), 0.0);

    // Large n approaches the normal quantile.
    std::vector<double> xs;
    for (int i = 0; i < 100; ++i)
        xs.push_back(i % 2 ? 1.0 : -1.0);
    const double sd = std::sqrt(100.0 / 99.0);
    EXPECT_NEAR(ci95HalfWidth(xs), 1.96 * sd / 10.0, 1e-9);
}

// -------------------------------------------------------- merged stats

TEST(MergedStats, SumsCountersAndRecomputesRatios)
{
    StatSnapshot a, b, merged;
    a.counters["core.retired"] = 100;
    a.counters["core.cycles"] = 50;
    a.formulas["core.ipc"] = 2.0;
    a.vectors["core.retireHist"] = {1, 2};
    b.counters["core.retired"] = 100;
    b.counters["core.cycles"] = 150;
    b.formulas["core.ipc"] = 100.0 / 150.0;
    b.vectors["core.retireHist"] = {4, 5, 6};

    accumulateWindowStats(merged, a);
    accumulateWindowStats(merged, b);
    EXPECT_TRUE(merged.formulas.empty()); // windows' ratios are not summed
    deriveFormulas(merged);

    EXPECT_EQ(merged.counter("core.retired"), 200u);
    EXPECT_EQ(merged.counter("core.cycles"), 200u);
    // Ratio of sums (1.0), NOT the mean of the per-window ratios (1.33).
    EXPECT_DOUBLE_EQ(merged.value("core.ipc"), 1.0);
    const std::vector<std::uint64_t> want = {5, 7, 6};
    EXPECT_EQ(merged.vec("core.retireHist"), want);
}

TEST(MergedStats, FormulaWithoutItsDenominatorIsLeftOut)
{
    StatSnapshot s;
    s.counters["core.retired"] = 100;
    s.counters["core.cycles"] = 0;
    s.counters["dl1.misses"] = 3; // no dl1.accesses
    deriveFormulas(s);
    // A zero denominator gives the formula's value for "nothing yet";
    // an absent one gives no formula at all.
    EXPECT_EQ(s.formulas.at("core.ipc"), 0.0);
    EXPECT_EQ(s.formulas.at("core.issueWaitMean"), 0.0);
    EXPECT_EQ(s.formulas.count("core.branchAccuracy"), 0u);
    EXPECT_EQ(s.formulas.count("il1.missRate"), 0u);
    EXPECT_EQ(s.formulas.count("dl1.missRate"), 0u);
    EXPECT_EQ(s.formulas.count("l2.missRate"), 0u);
    EXPECT_EQ(s.formulas.size(), 2u);

    // A campaign with no window merges to nothing and derives nothing.
    StatSnapshot empty;
    deriveFormulas(empty);
    EXPECT_EQ(empty, StatSnapshot{});
}

TEST(MergedStats, CompressCampaignIsPinned)
{
    // Recorded when a warm-up leg ended by zeroing every counter in
    // place and the merge restated each ratio by hand: a window
    // measured as a snapshot difference, with its ratios derived once,
    // must give back every bit of the window IPCs and merged stats.
    const Program prog = testProgram();
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::RbLimited, 4);
    SamplingOptions opts;
    opts.periodInsts = 20'000;
    opts.warmupInsts = 2'000;
    opts.measureInsts = 5'000;
    const SampledResult res = runCampaign(cfg, prog, opts);

    EXPECT_EQ(res.windows, 12u);
    EXPECT_EQ(res.ffInsts, 221'718u);
    const std::vector<double> ipc = {
        0x1.2b585ddfe902ap+0, 0x1.f23f9394c6e69p-1, 0x1.1e0894bcc8393p+0,
        0x1.169fd1a30d0a2p+0, 0x1.089277962bd03p+0, 0x1.28a3bebd418ebp+0,
        0x1.ca9df29bbf0f5p+0, 0x1.ca1fe2ae165b4p+0, 0x1.c6b4f92dece7p+0,
        0x1.c6625426e531p+0,  0x1.c68ba2e8ba2e9p+0, 0x1.e822186f60e35p+0};
    EXPECT_EQ(res.windowIpc, ipc);
    EXPECT_EQ(res.ipcMean, 0x1.723ccd8706ce7p+0);
    EXPECT_EQ(res.ipcCi95, 0x1.eab4cf17d159bp-3);
    EXPECT_EQ(res.merged.toJson().dump(),
        "{\"counters\":{\"bpred.gshareChosen\":8040,"
        "\"bpred.localChosen\":330,\"bpred.lookups\":8370,"
        "\"core.condBranches\":4719,\"core.condMispredicts\":355,"
        "\"core.cycles\":42570,\"core.deadlockAborts\":0,"
        "\"core.dispatched\":83853,\"core.fetched\":98271,"
        "\"core.flushes\":730,\"core.holeWaitCycles\":7284,"
        "\"core.issueWaitSum\":2402256,\"core.issued\":68684,"
        "\"core.jmpFetchStalls\":0,\"core.loadForwards\":27,"
        "\"core.loads\":4716,\"core.rbBogusCorrections\":0,"
        "\"core.rbPathExecs\":31977,\"core.retired\":56718,"
        "\"core.squashed\":41568,\"core.stores\":415,"
        "\"core.withAnySource\":52938,\"core.withBypassedSource\":42072,"
        "\"cosim.checked\":56718,\"dl1.accesses\":5518,\"dl1.misses\":866,"
        "\"fetch.icacheStallCycles\":0,\"il1.accesses\":7792,"
        "\"il1.misses\":0,\"l2.accesses\":866,\"l2.misses\":183,"
        "\"lsq.forwards\":68,\"lsq.inserted\":7859,\"lsq.searches\":10274,"
        "\"mem.accesses\":183},"
        "\"formulas\":{\"core.branchAccuracy\":0.92477219749947026,"
        "\"core.ipc\":1.3323467230443975,"
        "\"core.issueWaitMean\":42.354384851369936,"
        "\"dl1.missRate\":0.15694092062341428,\"il1.missRate\":0,"
        "\"l2.missRate\":0.2113163972286374},"
        "\"vectors\":{\"bypass.case\":[9440,14314,9969,8349],"
        "\"bypass.slot\":[41753,0,319,3437,300,155,1317,5647],"
        "\"core.fetchSlots\":[27906,0,345,32,42,5120,245,793,8087,0,0,0,0,0,"
        "0,0,0],\"core.holeWait\":[53662,626,2153,277,0,0,0,0,0,0,0,0,0,0,0,"
        "0],\"core.issueWait\":[9620,3264,830,523,488,445,1030,744,140,107,"
        "285,497,318,183,132,38112],\"core.retireSlots\":[24566,9158,685,"
        "2504,1009,812,16,74,3746,0,0,0,0,0,0,0,0],\"core.table1\":[17409,0,"
        "0,5131,4192,526,4719,24741]}}");
}

// ----------------------------------------------- the acceptance check

/**
 * ISSUE acceptance criterion: a full-detail run and a sampled run of
 * the same workload agree on IPC within the sampled run's reported 95%
 * confidence interval, on the Figure 12 machine grid.
 */
TEST(SampledVsFull, AgreeWithinCi95OnTheFig12Grid)
{
    const Program prog = testProgram();
    const std::uint64_t len = dynLength(prog);
    const SamplingOptions opts = regimenFor(len, 10);

    for (MachineKind kind :
         {MachineKind::Baseline, MachineKind::RbLimited,
          MachineKind::RbFull, MachineKind::Ideal}) {
        const MachineConfig cfg = MachineConfig::make(kind, 4);
        const SimResult full = simulate(cfg, prog);
        ASSERT_TRUE(full.halted);

        const SampledResult sampled = runCampaign(cfg, prog, opts);
        ASSERT_GE(sampled.windows, 2u) << cfg.label;
        EXPECT_TRUE(sampled.completed);
        EXPECT_EQ(sampled.ffInsts, len);

        EXPECT_LE(std::abs(full.ipc() - sampled.ipcMean),
                  sampled.ipcCi95)
            << cfg.label << ": full " << full.ipc() << " vs sampled "
            << sampled.ipcMean << " +/- " << sampled.ipcCi95;
    }
}

TEST(SampledVsFull, MeasuredWindowsHaveTheRequestedLength)
{
    const Program prog = testProgram();
    const std::uint64_t len = dynLength(prog);
    const SamplingOptions opts = regimenFor(len, 8);
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);

    const SampledResult res = runCampaign(cfg, prog, opts);
    ASSERT_GE(res.windows, 2u);
    // Every window but possibly the last measures exactly measureInsts
    // retired instructions (the budget stops retirement at the boundary;
    // the tail window may reach HALT first).
    const std::uint64_t retired = res.merged.counter("core.retired");
    EXPECT_GE(retired, (res.windows - 1) * opts.measureInsts);
    EXPECT_LE(retired, res.windows * opts.measureInsts);
    // The merged IPC formula is the ratio of the summed counters.
    EXPECT_DOUBLE_EQ(res.merged.value("core.ipc"),
                     static_cast<double>(retired) /
                         static_cast<double>(
                             res.merged.counter("core.cycles")));
}

// ------------------------------------------------- sharded campaigns

TEST(ShardedSampling, FourWorkersMergeToExactlyTheOneWorkerNumbers)
{
    const Program prog = testProgram();
    const std::uint64_t len = dynLength(prog);
    const SamplingOptions opts = regimenFor(len, 6);
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);

    const SampledResult one = runCampaign(cfg, prog, opts);

    serve::SimService service(
        serve::SimService::Options{/*workers=*/4, /*cacheCapacity=*/64});
    const serve::SampledOutcome sharded =
        serve::runSampled(service, cfg, prog, opts);

    ASSERT_TRUE(sharded.ok) << sharded.error;
    EXPECT_EQ(sharded.result.windows, one.windows);
    EXPECT_EQ(sharded.result.ffInsts, one.ffInsts);
    EXPECT_EQ(sharded.result.completed, one.completed);
    // Stream-order merge: bit-equal window IPCs, merged stats, mean, CI
    // regardless of which worker finished which window first.
    EXPECT_EQ(sharded.result.windowIpc, one.windowIpc);
    EXPECT_EQ(sharded.result.merged, one.merged);
    EXPECT_EQ(sharded.result.ipcMean, one.ipcMean);
    EXPECT_EQ(sharded.result.ipcCi95, one.ipcCi95);

    // Windows are cacheable (keyed by checkpoint fingerprint): a repeat
    // campaign executes nothing new.
    const std::uint64_t executed = service.counters().jobsExecuted;
    const serve::SampledOutcome again =
        serve::runSampled(service, cfg, prog, opts);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.result.ipcMean, sharded.result.ipcMean);
    EXPECT_EQ(service.counters().jobsExecuted, executed);
}

// ------------------------------------ streaming failure contract

/** ~4 * `trips` instructions of counted loop, then a JMP to a data
 * address: the fast-forward pass throws InterpError there, after the
 * windows of every earlier sampling point were handed out. */
Program
faultAfterLoop(std::int64_t trips)
{
    CodeBuilder cb("jmp-to-data");
    cb.ldiq(R(1), trips);
    const Label loop = cb.newLabel();
    cb.bind(loop);
    cb.opi(Opcode::ADDQ, R(2), 3, R(2));
    cb.op3(Opcode::XOR, R(2), R(1), R(3));
    cb.opi(Opcode::SUBQ, R(1), 1, R(1));
    cb.branch(Opcode::BNE, R(1), loop);
    cb.ldiq(R(4), 0x200000); // not a code address
    cb.jmp(R(26), R(4));
    cb.halt();
    return cb.finish();
}

/** Windows every 2,000 instructions, each well clear of the fault. */
SamplingOptions
faultRegimen()
{
    SamplingOptions opts;
    opts.periodInsts = 2'000;
    opts.warmupInsts = 200;
    opts.measureInsts = 500;
    return opts;
}

TEST(ShardedSampling, FastForwardFaultReachesTheCallerAndDoneNeverRuns)
{
    const Program bad = faultAfterLoop(5'000); // 10 windows, then the JMP
    const SamplingOptions opts = faultRegimen();
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);

    // No result cache, so every window executes on a worker.
    serve::SimService service(
        serve::SimService::Options{/*workers=*/2, /*cacheCapacity=*/0});
    std::atomic<int> doneRuns{0};
    EXPECT_THROW(serve::submitSampled(service, cfg, bad, opts,
                                      [&doneRuns](serve::SampledOutcome) {
                                          ++doneRuns;
                                      }),
                 InterpError);
    // The pass had already handed windows to the workers; they finish
    // without reaching the abandoned callback.
    EXPECT_GE(service.counters().cacheMisses, 2u);
    service.wait();
    EXPECT_GE(service.counters().jobsExecuted, 2u);
    EXPECT_EQ(doneRuns.load(), 0);

    // The blocking form rethrows the same error.
    EXPECT_THROW(serve::runSampled(service, cfg, bad, opts), InterpError);
    service.wait();

    // The same service then runs a normal campaign to the numbers of a
    // fresh one-worker service.
    const Program good = testProgram();
    const SamplingOptions gopts = regimenFor(dynLength(good), 6);
    const SampledResult fresh = runCampaign(cfg, good, gopts);
    const serve::SampledOutcome after =
        serve::runSampled(service, cfg, good, gopts);
    ASSERT_TRUE(after.ok) << after.error;
    EXPECT_EQ(after.result.windows, fresh.windows);
    EXPECT_EQ(after.result.windowIpc, fresh.windowIpc);
    EXPECT_EQ(after.result.merged, fresh.merged);
    EXPECT_EQ(doneRuns.load(), 0);
}

} // namespace
} // namespace rbsim
