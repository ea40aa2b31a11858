/**
 * @file
 * Tests for the workload-description API (src/workloads/gen/): the key
 * distributions match their theoretical curves, streams respect the
 * configured op mixes and taken-rates, pointer-chase footprints land in
 * the intended cache level, generation is seed-deterministic down to
 * Program::hash(), every family co-simulates bit-clean on the Figure 12
 * machine grid, and the Zipfian skew sweep moves the DL1 hit rate
 * monotonically.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "func/interp.hh"
#include "sim/simulator.hh"
#include "workloads/gen/keydist.hh"
#include "workloads/gen/opstream.hh"
#include "workloads/workload.hh"

namespace rbsim
{
namespace
{

using namespace rbsim::gen;

/** A fast-to-simulate variant of a preset for the timing-core tests. */
GenConfig
quick(const std::string &preset, std::uint32_t ops = 2048,
      unsigned trips = 1)
{
    GenConfig cfg = genPreset(preset);
    cfg.streamOps = ops;
    cfg.trips = trips;
    return cfg;
}

// ------------------------------------------------------ configuration

TEST(GenConfigNames, FamiliesAndDistsRoundTrip)
{
    for (GenFamily f : {GenFamily::KeyAccess, GenFamily::PointerChase,
                        GenFamily::BranchEntropy,
                        GenFamily::RbAdversarial}) {
        EXPECT_EQ(genFamilyFromName(genFamilyName(f)), f);
    }
    for (KeyDist d : {KeyDist::Uniform, KeyDist::Zipfian,
                      KeyDist::SelfSimilar}) {
        EXPECT_EQ(keyDistFromName(keyDistName(d)), d);
    }
    EXPECT_THROW(genFamilyFromName("nonesuch"), std::invalid_argument);
    EXPECT_THROW(keyDistFromName("nonesuch"), std::invalid_argument);
}

TEST(GenConfigNames, PresetsResolveAndParameterizedFormsParse)
{
    for (const std::string &name : genPresetNames()) {
        const GenConfig cfg = genPreset(name);
        EXPECT_EQ(cfg.name(), name) << "preset display name drifted";
    }
    EXPECT_DOUBLE_EQ(genPreset("zipf-0.75").skew, 0.75);
    EXPECT_EQ(genPreset("zipf-0.75").dist, KeyDist::Zipfian);
    EXPECT_DOUBLE_EQ(genPreset("selfsim-0.2").skew, 0.2);
    EXPECT_EQ(genPreset("selfsim-0.2").dist, KeyDist::SelfSimilar);
    EXPECT_DOUBLE_EQ(genPreset("branch-0.9").takenRate, 0.9);
    EXPECT_EQ(genPreset("branch-0.9").family, GenFamily::BranchEntropy);
    EXPECT_THROW(genPreset("nonesuch"), std::invalid_argument);
    EXPECT_THROW(genPreset("zipf-"), std::invalid_argument);
}

TEST(GenConfigJson, RoundTripsEveryFieldForTheWholeSweepSet)
{
    std::vector<GenConfig> configs = genSweepConfigs();
    for (const std::string &name : genPresetNames())
        configs.push_back(genPreset(name));
    GenConfig custom;
    custom.family = GenFamily::KeyAccess;
    custom.dist = KeyDist::SelfSimilar;
    custom.skew = 0.123;
    custom.numKeys = 777;
    custom.scramble = false;
    custom.readFrac = 0.1;
    custom.updateFrac = 0.2;
    custom.rmwFrac = 0.3;
    custom.scanFrac = 0.4;
    custom.scanLen = 9;
    custom.workingSetBytes = 12345;
    custom.nodeBytes = 32;
    custom.chaseSteps = 7;
    custom.takenRate = 0.42;
    custom.chainLen = 5;
    custom.streamOps = 99;
    custom.trips = 4;
    custom.label = "custom";
    configs.push_back(custom);

    for (const GenConfig &cfg : configs) {
        const GenConfig back = GenConfig::fromJson(cfg.toJson());
        EXPECT_EQ(back, cfg) << cfg.name();
        EXPECT_EQ(back.name(), cfg.name());
    }
}

TEST(GenConfigJson, RejectsMalformedInput)
{
    EXPECT_THROW(GenConfig::fromJson("[]"), std::exception);
    EXPECT_THROW(GenConfig::fromJson("{\"family\": \"bogus\"}"),
                 std::invalid_argument);
}

TEST(GenSweep, DefaultSetCoversEveryFamilyAndSkewOverrideWorks)
{
    const std::vector<GenConfig> sweep = genSweepConfigs();
    std::set<GenFamily> families;
    std::vector<double> zipfSkews;
    for (const GenConfig &cfg : sweep) {
        families.insert(cfg.family);
        if (cfg.family == GenFamily::KeyAccess &&
            cfg.dist == KeyDist::Zipfian) {
            zipfSkews.push_back(cfg.skew);
        }
    }
    EXPECT_EQ(families.size(), 4u);
    ASSERT_GE(zipfSkews.size(), 2u);
    EXPECT_DOUBLE_EQ(zipfSkews.front(), 0.5);
    EXPECT_DOUBLE_EQ(zipfSkews.back(), 0.99);
    EXPECT_TRUE(std::is_sorted(zipfSkews.begin(), zipfSkews.end()));

    const std::vector<GenConfig> two = genSweepConfigs({0.6, 0.8});
    unsigned zipfs = 0;
    for (const GenConfig &cfg : two) {
        zipfs += cfg.family == GenFamily::KeyAccess &&
                 cfg.dist == KeyDist::Zipfian;
    }
    EXPECT_EQ(zipfs, 2u);
}

// ------------------------------------------- statistical: key pickers

TEST(KeyDistStats, ZipfianEmpiricalRankFrequencyMatchesTheory)
{
    // Draw 200k ranks from zipfian(0.99) over 1024 keys and compare the
    // empirical frequency of the head ranks against the closed-form
    // rankProbability(). 3-sigma binomial tolerance per rank.
    const std::uint64_t n = 1024;
    const double theta = 0.99;
    KeyPicker picker(KeyDist::Zipfian, n, theta, /*scramble=*/false);
    const unsigned draws = 200'000;
    std::map<std::uint64_t, unsigned> hist;
    Rng rng(2026);
    for (unsigned i = 0; i < draws; ++i)
        ++hist[picker.pickRank(rng)];

    double mass = 0.0;
    for (std::uint64_t rank = 0; rank < 16; ++rank) {
        const double p = picker.rankProbability(rank);
        mass += p;
        const double sigma = std::sqrt(p * (1 - p) / draws);
        const double emp = double(hist[rank]) / draws;
        // Gray's construction handles ranks 0 and 1 as exact special
        // cases; the inverse-CDF tail is a deliberate approximation, so
        // deeper ranks get a relative band on top of the binomial noise.
        const double tol =
            3 * sigma + (rank < 2 ? 1e-4 : 0.25 * p);
        EXPECT_NEAR(emp, p, tol) << "rank " << rank;
    }
    // Zipfian(0.99) heads hard: the top 16 of 1024 ranks should carry
    // a third or more of the mass.
    EXPECT_GT(mass, 0.33);
    // Adjacent-rank ratio p(0)/p(1) = 2^theta.
    EXPECT_NEAR(picker.rankProbability(0) / picker.rankProbability(1),
                std::pow(2.0, theta), 1e-9);
}

TEST(KeyDistStats, SelfSimilarHotSetCarriesOneMinusH)
{
    // Gray's self-similar(h): a (1-h) share of accesses falls on the
    // hottest h*n keys. Check empirically at h = 0.2 (the 80/20 rule).
    const std::uint64_t n = 4096;
    const double h = 0.2;
    KeyPicker picker(KeyDist::SelfSimilar, n, h, /*scramble=*/false);
    const unsigned draws = 200'000;
    unsigned hot = 0;
    Rng rng(7);
    for (unsigned i = 0; i < draws; ++i)
        hot += picker.pickRank(rng) < std::uint64_t(h * n);
    EXPECT_NEAR(double(hot) / draws, 1.0 - h, 0.01);
}

TEST(KeyDistStats, UniformIsFlatAndScrambleIsAPermutation)
{
    const std::uint64_t n = 256;
    KeyPicker picker(KeyDist::Uniform, n, 0.0, /*scramble=*/false);
    const unsigned draws = 256 * 1000;
    std::vector<unsigned> hist(n, 0);
    Rng rng(11);
    for (unsigned i = 0; i < draws; ++i)
        ++hist[picker.pickRank(rng)];
    for (std::uint64_t k = 0; k < n; ++k)
        EXPECT_NEAR(hist[k] / double(draws), 1.0 / n, 0.2 / n) << k;

    // Scrambling must relocate hot ranks without collisions.
    KeyPicker scrambled(KeyDist::Zipfian, n, 0.9, /*scramble=*/true);
    std::set<std::uint64_t> slots;
    for (std::uint64_t rank = 0; rank < n; ++rank) {
        const std::uint64_t slot = scrambled.slotOfRank(rank);
        EXPECT_LT(slot, n);
        EXPECT_TRUE(slots.insert(slot).second)
            << "scramble collision at rank " << rank;
    }
}

TEST(KeyDistStats, HigherSkewConcentratesMoreMassOnTheHead)
{
    // The acceptance property behind the DL1 sweep: as theta rises
    // 0.5 -> 0.99 the head of the distribution (top 1% of ranks) must
    // carry strictly more probability mass.
    const std::uint64_t n = 64 * 1024;
    double prev = 0.0;
    for (double theta : {0.5, 0.6, 0.7, 0.8, 0.9, 0.99}) {
        KeyPicker picker(KeyDist::Zipfian, n, theta, false);
        double head = 0.0;
        for (std::uint64_t rank = 0; rank < n / 100; ++rank)
            head += picker.rankProbability(rank);
        EXPECT_GT(head, prev) << "theta " << theta;
        prev = head;
    }
}

// ------------------------------------------------ statistical: streams

TEST(StreamStats, YcsbMixesMatchTheirMolds)
{
    GenConfig a = quick("ycsb-a", 20'000);
    unsigned reads = 0, updates = 0, other = 0;
    for (const WorkloadOp &op : drawStream(a, 1)) {
        if (op.kind == WorkloadOp::Kind::KeyRead)
            ++reads;
        else if (op.kind == WorkloadOp::Kind::KeyUpdate)
            ++updates;
        else
            ++other;
    }
    EXPECT_EQ(other, 0u);
    EXPECT_NEAR(double(reads) / (reads + updates), 0.5, 0.02);

    for (const WorkloadOp &op : drawStream(quick("ycsb-c", 4096), 1))
        EXPECT_EQ(op.kind, WorkloadOp::Kind::KeyRead);

    unsigned scans = 0, rmws = 0;
    for (const WorkloadOp &op : drawStream(quick("ycsb-e", 4096), 1))
        scans += op.kind == WorkloadOp::Kind::KeyScan;
    for (const WorkloadOp &op : drawStream(quick("ycsb-f", 4096), 1))
        rmws += op.kind == WorkloadOp::Kind::KeyRmw;
    EXPECT_GT(scans, 4096u * 8 / 10);
    EXPECT_GT(rmws, 4096u * 4 / 10);
}

TEST(StreamStats, BranchTakenRateHitsTheConfiguredTarget)
{
    for (double rate : {0.5, 0.9, 0.99}) {
        GenConfig cfg = genPreset("branch-0.5");
        cfg.takenRate = rate;
        cfg.streamOps = 20'000;
        unsigned branches = 0, taken = 0;
        for (const WorkloadOp &op : drawStream(cfg, 3)) {
            if (op.kind == WorkloadOp::Kind::Branch) {
                ++branches;
                taken += op.taken;
            }
        }
        ASSERT_GT(branches, 10'000u);
        EXPECT_NEAR(double(taken) / branches, rate, 0.02)
            << "taken-rate " << rate;
    }
}

TEST(StreamStats, RbAdversarialStreamsAreComputeChainHeavy)
{
    unsigned rbBursts = 0, total = 0;
    const GenConfig cfg = quick("rb-adversarial", 4096);
    for (const WorkloadOp &op : drawStream(cfg, 5)) {
        ++total;
        if (op.kind == WorkloadOp::Kind::Compute) {
            EXPECT_TRUE(op.rb);
            EXPECT_EQ(op.len, cfg.chainLen);
            ++rbBursts;
        }
    }
    EXPECT_GT(rbBursts, total / 2);
}

// --------------------------------------------------- seed determinism

TEST(GenDeterminism, SameSeedSameHashDifferentSeedDifferentHash)
{
    for (const GenConfig &sweepCfg : genSweepConfigs({0.5, 0.99})) {
        GenConfig cfg = sweepCfg;
        cfg.streamOps = 512; // keep the full-sweep loop fast
        WorkloadParams wp;
        wp.seed = 42;
        const Program a = buildGenProgram(cfg, wp);
        const Program b = buildGenProgram(cfg, wp);
        EXPECT_EQ(a.hash(), b.hash()) << cfg.name();
        wp.seed = 43;
        const Program c = buildGenProgram(cfg, wp);
        EXPECT_NE(a.hash(), c.hash()) << cfg.name();
    }
}

TEST(GenDeterminism, RegistryLookupResolvesPresetsByName)
{
    const WorkloadInfo info = findWorkload("ycsb-a");
    EXPECT_EQ(info.suite, "gen");
    EXPECT_EQ(info.name, "ycsb-a");
    // Parametric presets keep the queried spelling too.
    EXPECT_EQ(findWorkload("branch-0.1500").name, "branch-0.1500");
    // The closure builds the same program as the direct path.
    WorkloadParams wp;
    wp.seed = 9;
    EXPECT_EQ(info.build(wp).hash(),
              buildGenProgram(genPreset("ycsb-a"), wp).hash());
    EXPECT_THROW(findWorkload("nonesuch"), std::out_of_range);
}

// ------------------------------------------------- timing-core checks

TEST(GenTiming, EveryFamilyCosimsCleanOnTheFig12Grid)
{
    // One representative per family, co-simulated on all four machine
    // kinds of the paper's Figure 12 grid at width 4. simulate() throws
    // CosimMismatch on divergence; the counter check guards the wiring.
    for (const char *preset : {"ycsb-a", "chase-dl1", "branch-0.9",
                               "rb-adversarial"}) {
        const Program p = buildGenProgram(quick(preset, 1024),
                                          WorkloadParams{});
        for (MachineKind kind :
             {MachineKind::Baseline, MachineKind::RbLimited,
              MachineKind::RbFull, MachineKind::Ideal}) {
            const MachineConfig cfg = MachineConfig::make(kind, 4);
            const SimResult r = simulate(cfg, p);
            EXPECT_TRUE(r.halted) << preset << " on " << cfg.label;
            EXPECT_EQ(r.counter("cosim.checked"),
                      r.counter("core.retired"))
                << preset << " on " << cfg.label;
        }
    }
}

TEST(GenTiming, ChaseFootprintLandsInTheConfiguredCacheLevel)
{
    // DL1 is 8 KiB and L2 is 1 MiB (machine_config.hh); the presets ride
    // 4 KiB / 256 KiB / 4 MiB rings. A resident ring chases at near-zero
    // miss rate; an over-capacity one misses nearly every deref.
    const MachineConfig cfg = MachineConfig::make(MachineKind::Baseline, 8);
    auto rates = [&](const char *preset, unsigned trips) {
        // Enough trips to amortize the compulsory misses of the first
        // pass around the ring (they would otherwise dominate L2).
        const SimResult r = simulate(
            cfg,
            buildGenProgram(quick(preset, 4096, trips), WorkloadParams{}));
        EXPECT_TRUE(r.halted) << preset;
        const double dl1 = double(r.counter("dl1.misses")) /
                           double(r.counter("dl1.accesses"));
        const double l2 = r.counter("l2.accesses")
                              ? double(r.counter("l2.misses")) /
                                    double(r.counter("l2.accesses"))
                              : 0.0;
        return std::pair<double, double>(dl1, l2);
    };

    const auto [dl1A, l2A] = rates("chase-dl1", 1);
    EXPECT_LT(dl1A, 0.05);

    const auto [dl1B, l2B] = rates("chase-l2", 4);
    EXPECT_GT(dl1B, 0.25); // spills DL1...
    EXPECT_LT(l2B, 0.30);  // ...but stays L2-resident

    const auto [dl1C, l2C] = rates("chase-mem", 1);
    EXPECT_GT(dl1C, 0.25);
    EXPECT_GT(l2C, 0.80); // spills L2 too: every chase goes to memory
    (void)l2A;
}

TEST(GenTiming, Dl1HitRateRisesMonotonicallyWithZipfianSkew)
{
    // The ISSUE acceptance check: sweeping skew 0.5 -> 0.99 over the
    // same key table must monotonically improve DL1 locality.
    const MachineConfig cfg = MachineConfig::make(MachineKind::Baseline, 8);
    double prevMiss = 1.0;
    for (double skew : {0.5, 0.7, 0.9, 0.99}) {
        GenConfig gc = genPreset("zipf-0.50");
        gc.skew = skew;
        gc.streamOps = 4096;
        gc.trips = 1;
        const SimResult r =
            simulate(cfg, buildGenProgram(gc, WorkloadParams{}));
        EXPECT_TRUE(r.halted);
        const double miss = double(r.counter("dl1.misses")) /
                            double(r.counter("dl1.accesses"));
        EXPECT_LT(miss, prevMiss) << "skew " << skew;
        prevMiss = miss;
    }
}

TEST(GenTiming, RbAdversarialPunishesTheRbMachinesMost)
{
    // The shift->logical chains exist to charge the RB machines the
    // Table 3 TC-conversion latency: both RB configs must trail the
    // Baseline on this workload (the opposite of the paper's headline
    // result on balanced code).
    const Program p =
        buildGenProgram(quick("rb-adversarial"), WorkloadParams{});
    auto ipc = [&](MachineKind kind) {
        const SimResult r =
            simulate(MachineConfig::make(kind, 8), p);
        EXPECT_TRUE(r.halted);
        return r.ipc();
    };
    const double base = ipc(MachineKind::Baseline);
    EXPECT_LT(ipc(MachineKind::RbLimited), base);
    EXPECT_LT(ipc(MachineKind::RbFull), base);
}

// ----------------------------------------------------- lowered shapes

TEST(GenLowering, ProgramsHaltOnTheReferenceInterpreter)
{
    for (const std::string &name : genPresetNames()) {
        const Program p =
            buildGenProgram(quick(name, 512), WorkloadParams{});
        Interp in(p);
        in.run(5'000'000);
        EXPECT_TRUE(in.halted()) << name;
        EXPECT_GT(in.instsExecuted(), 512u) << name;
    }
}

TEST(GenLowering, ScaleKnobMultipliesTrips)
{
    const GenConfig cfg = quick("ycsb-b", 512);
    WorkloadParams wp1;
    WorkloadParams wp3;
    wp3.scale = 3;
    // Interp binds to the program by reference: keep both alive.
    const Program p1 = buildGenProgram(cfg, wp1);
    const Program p3 = buildGenProgram(cfg, wp3);
    Interp a(p1);
    Interp b(p3);
    a.run(20'000'000);
    b.run(20'000'000);
    ASSERT_TRUE(a.halted() && b.halted());
    EXPECT_GT(b.instsExecuted(), 2 * a.instsExecuted());
}

} // namespace
} // namespace rbsim
