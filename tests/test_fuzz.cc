/**
 * @file
 * Unit tests for the differential fuzzing subsystem itself: the
 * reproducible Rng streams, the recipe generator's coverage, the
 * disassemble/assemble round trip repro files rely on, the repro
 * serialization, and — via planted bugs — the detect/shrink pipeline
 * end to end.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "common/json.hh"
#include "fuzz/corpus.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/generator.hh"
#include "fuzz/shrink.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"
#include "isa/opclass.hh"
#include "sim/simulator.hh"

namespace rbsim
{
namespace
{

using namespace rbsim::fuzz;

// ---------------------------------------------------------------- rng

TEST(FuzzRng, StateRoundTrip)
{
    Rng a(123);
    a.next();
    a.next();
    Rng b = Rng::fromState(a.state());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(FuzzRng, ForkIsIndependentAndReproducible)
{
    Rng a(9), b(9);
    Rng childA = a.fork();
    Rng childB = b.fork();
    // Forking is deterministic...
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(childA.next(), childB.next());
    // ...advances the parent identically...
    EXPECT_EQ(a.state(), b.state());
    // ...and the child stream differs from the parent's continuation.
    Rng parent = Rng::fromState(a.state());
    Rng child = a.fork();
    bool differs = false;
    for (int i = 0; i < 8 && !differs; ++i)
        differs = parent.next() != child.next();
    EXPECT_TRUE(differs);
}

TEST(FuzzRng, MixSeedGivesDistinctPerCaseStreams)
{
    // The fuzzer's per-case streams must not collide across nearby case
    // indices or depend on anything but (seed, index).
    std::map<std::uint64_t, std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const std::uint64_t s = Rng::mixSeed(42, i);
        EXPECT_EQ(Rng::mixSeed(42, i), s);
        EXPECT_TRUE(seen.emplace(s, i).second)
            << "collision between case " << i << " and " << seen[s];
    }
}

// ---------------------------------------------------------- generator

TEST(FuzzGenerator, DefaultMixCoversAllKindsAndTable1Rows)
{
    std::array<unsigned, numOpKinds> kind_seen{};
    std::array<unsigned, numTable1Rows> row_seen{};
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        const ProgRecipe recipe =
            generateRecipe(rng, GenOptions());
        for (const BodyOp &op : recipe.body)
            ++kind_seen[static_cast<unsigned>(op.kind)];
        const Program prog = lowerRecipe(recipe);
        for (const Inst &inst : prog.code)
            ++row_seen[static_cast<unsigned>(table1Row(inst.op))];
    }
    for (unsigned k = 0; k < numOpKinds; ++k) {
        EXPECT_GT(kind_seen[k], 0u)
            << "op kind never generated: "
            << opKindName(static_cast<OpKind>(k));
    }
    for (unsigned r = 0; r < numTable1Rows; ++r) {
        EXPECT_GT(row_seen[r], 0u)
            << "Table 1 row never generated: "
            << table1RowLabel(static_cast<Table1Row>(r));
    }
}

TEST(FuzzGenerator, PresetsShapeTheMix)
{
    Rng rng(3);
    const ProgRecipe arith =
        generateRecipe(rng, GenOptions::preset("arith"));
    for (const BodyOp &op : arith.body) {
        EXPECT_TRUE(op.kind == OpKind::Arith || op.kind == OpKind::Mul ||
                    op.kind == OpKind::Shift || op.kind == OpKind::Lda ||
                    op.kind == OpKind::Store)
            << opKindName(op.kind);
    }
    EXPECT_THROW(GenOptions::preset("nope"), std::invalid_argument);
}

TEST(FuzzGenerator, StreamPresetsBridgeTheWorkloadGenerators)
{
    // The workload-stream presets route recipe bodies through the
    // gen:: op streams. Every one must still lower to a structurally
    // terminating program, and the rb-adversarial preset must be
    // shift-chain heavy (its whole point).
    for (const char *name :
         {"ycsb", "pointer-chase", "branch-entropy", "rb-adversarial"}) {
        const GenOptions opts = GenOptions::preset(name);
        EXPECT_TRUE(opts.useStream) << name;
        Rng rng(17);
        const ProgRecipe recipe = generateRecipe(rng, opts);
        EXPECT_FALSE(recipe.body.empty()) << name;
        const Program prog = lowerRecipe(recipe);
        const MachineConfig cfg =
            MachineConfig::make(MachineKind::Baseline, 8);
        SimOptions sopts;
        sopts.maxCycles = 3'000'000;
        EXPECT_TRUE(simulate(cfg, prog, sopts).halted) << name;
    }

    Rng rng(23);
    const ProgRecipe adv =
        generateRecipe(rng, GenOptions::preset("rb-adversarial"));
    unsigned shifts = 0;
    for (const BodyOp &op : adv.body)
        shifts += op.kind == OpKind::Shift;
    EXPECT_GT(shifts, adv.body.size() / 4);
}

TEST(FuzzGenerator, GenOptionsJsonRoundTrip)
{
    // Default options round-trip...
    const GenOptions dflt;
    EXPECT_TRUE(genOptionsFromJson(genOptionsToJson(dflt)) == dflt);
    // ...and so does every preset, including the stream-backed ones
    // (whose embedded GenConfig must survive the trip).
    for (const std::string &name : GenOptions::presetNames()) {
        const GenOptions opts = GenOptions::preset(name);
        const GenOptions back =
            genOptionsFromJson(genOptionsToJson(opts));
        EXPECT_TRUE(back == opts) << name;
    }
    EXPECT_THROW(genOptionsFromJson(Json::parse("{\"bogus\": 1}")),
                 std::invalid_argument);
    // A count wider than its field is rejected, not truncated (to a
    // maxBody of 1), and so are weights that are not an object and a
    // misspelt stream key.
    for (const char *bad : {R"({"maxBody":4294967297})",
                            R"({"weights":{"arith":4294967296}})",
                            R"({"stream":{"numKeys":4294967297}})",
                            R"({"maxBody":1e30})",
                            R"({"weights":5})",
                            R"({"stream":{"numKeyz":5}})"}) {
        EXPECT_THROW(genOptionsFromJson(Json::parse(bad)),
                     std::invalid_argument)
            << bad;
    }
}

TEST(FuzzGenerator, ProgramsTerminateStructurally)
{
    // Every generated program must reach HALT on every machine; run a
    // couple on the baseline as a cheap structural check (the cosim
    // oracle and test_random_programs cover the full matrix).
    for (std::uint64_t seed : {101ull, 102ull}) {
        const Program prog = generateProgram(seed);
        const MachineConfig cfg =
            MachineConfig::make(MachineKind::Baseline, 8);
        SimOptions opts;
        opts.maxCycles = 3'000'000;
        EXPECT_TRUE(simulate(cfg, prog, opts).halted) << seed;
    }
}

TEST(FuzzGenerator, RandomConfigSpansTheSpace)
{
    Rng rng(5);
    bool saw_limited = false, saw_noholes = false, saw_steer = false;
    for (int i = 0; i < 200; ++i) {
        const MachineConfig cfg = randomConfig(rng);
        EXPECT_TRUE(cfg.width == 4 || cfg.width == 8);
        saw_limited |= cfg.bypassLevelMask != 0b111;
        saw_noholes |= !cfg.holeAwareScheduling;
        saw_steer |= cfg.steering != Steering::RoundRobinPairs;
    }
    EXPECT_TRUE(saw_limited);
    EXPECT_TRUE(saw_noholes);
    EXPECT_TRUE(saw_steer);
}

// ----------------------------------------------- disassembly round trip

TEST(FuzzDisasm, GeneratedProgramsRoundTripThroughAssembler)
{
    // Repro files store the program as assembly text, so
    // disassembleProgram -> assemble must reproduce the exact
    // instruction stream, entry point, and data image.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Program prog = generateProgram(seed);
        const Program back = assemble(disassembleProgram(prog));
        ASSERT_EQ(back.code.size(), prog.code.size()) << seed;
        for (std::size_t i = 0; i < prog.code.size(); ++i)
            EXPECT_TRUE(back.code[i] == prog.code[i])
                << "seed " << seed << " inst " << i;
        EXPECT_EQ(back.entry, prog.entry) << seed;
        // The same resident pages holding the same bytes.
        EXPECT_TRUE(back.sameContent(prog)) << seed;
    }
}

// -------------------------------------------------------------- oracles

TEST(FuzzOracles, NamesAndConstruction)
{
    const auto all = makeOracles();
    ASSERT_EQ(all.size(), oracleNames().size());
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i]->name(), oracleNames()[i]);
    EXPECT_THROW(makeOracles({"bogus"}), std::invalid_argument);
    EXPECT_THROW(parsePlant("bogus"), std::invalid_argument);
    EXPECT_EQ(parsePlant(""), Plant::None);
    EXPECT_EQ(parsePlant("sched-bypass-widen"), Plant::SchedBypassWiden);
}

TEST(FuzzOracles, SnapshotDiffPinpointsTheFirstDifference)
{
    StatSnapshot a, b;
    a.counters["core.cycles"] = 10;
    b.counters["core.cycles"] = 10;
    EXPECT_EQ(snapshotDiff(a, b), "");
    b.counters["core.cycles"] = 11;
    const std::string d = snapshotDiff(a, b);
    EXPECT_NE(d.find("core.cycles"), std::string::npos) << d;
}

// ------------------------------------------------------------- shrinker

/** First seed whose default-mix recipe trips the opcode-pair plant. */
std::pair<ProgRecipe, std::vector<MachineConfig>>
findOpcodePairCase(const Oracle &oracle)
{
    for (std::uint64_t seed = 1; seed < 200; ++seed) {
        Rng rng(seed);
        std::vector<MachineConfig> configs = oracle.pickConfigs(rng);
        ProgRecipe recipe = generateRecipe(rng, GenOptions());
        if (oracle.runProgram(lowerRecipe(recipe), configs).failed)
            return {std::move(recipe), std::move(configs)};
    }
    ADD_FAILURE() << "no seed tripped the planted opcode pair";
    return {};
}

TEST(FuzzShrinker, PlantedOpcodePairShrinksToMinimalProgram)
{
    const auto oracle = std::move(
        makeOracles({"cosim"}, Plant::CosimOpcodePair).front());
    auto [recipe, configs] = findOpcodePairCase(*oracle);

    const ShrinkOutcome out =
        shrinkRecipe(*oracle, configs, recipe, 400);
    ASSERT_TRUE(out.reproduced);

    const Program prog = lowerRecipe(out.recipe);
    // The plant fires iff a MULQ and an STQ are both present, so the
    // minimum is exactly one of each plus their register setup. Known
    // minimal shape: <= 2 body ops and <= 12 instructions.
    EXPECT_LE(out.recipe.body.size() + (out.recipe.subs.empty()
                  ? 0 : out.recipe.subs[0].ops.size()), 2u);
    EXPECT_LE(prog.code.size(), 12u);
    bool mul = false, stq = false;
    for (const Inst &inst : prog.code) {
        mul |= inst.op == Opcode::MULQ;
        stq |= inst.op == Opcode::STQ;
    }
    EXPECT_TRUE(mul);
    EXPECT_TRUE(stq);
    // Structural sugar must all be gone.
    EXPECT_EQ(out.recipe.loopTrips, 1u);
    EXPECT_FALSE(out.recipe.hasJumpTable);
    EXPECT_EQ(out.recipe.foldStores, 0u);
    // And the shrunk case still fails.
    EXPECT_TRUE(oracle->runProgram(prog, configs).failed);
}

TEST(FuzzShrinker, PassingRecipeIsReturnedUntouched)
{
    const auto oracle = std::move(makeOracles({"cosim"}).front());
    Rng rng(4);
    const std::vector<MachineConfig> configs =
        oracle->pickConfigs(rng);
    ProgRecipe recipe = generateRecipe(rng, GenOptions());
    const ShrinkOutcome out =
        shrinkRecipe(*oracle, configs, recipe, 10);
    EXPECT_FALSE(out.reproduced);
    EXPECT_EQ(out.evals, 1u);
    EXPECT_EQ(lowerRecipe(out.recipe).code.size(),
              lowerRecipe(recipe).code.size());
}

// ------------------------------------------------------ planted sched bug

TEST(FuzzPipeline, SchedBypassWidenPlantIsCaughtAndShrunk)
{
    // End to end: the silently widened bypass network must produce a
    // scheduler divergence, and the driver must shrink it to a small
    // repro that replays clean without the plant.
    FuzzOptions opts;
    opts.oracles = {"sched"};
    opts.plant = Plant::SchedBypassWiden;
    opts.iterations = 4;
    opts.jobs = 2;
    opts.seed = 11;
    const FuzzSummary summary = runFuzz(opts);
    ASSERT_FALSE(summary.failures.empty());
    for (const FuzzFailure &f : summary.failures) {
        EXPECT_EQ(f.oracle, "sched");
        EXPECT_GT(f.programInsts, 0u);
        EXPECT_NE(f.detail.find("divergence"), std::string::npos)
            << f.detail;
        // The repro replays clean on the honest simulator and fails
        // again under the plant.
        EXPECT_FALSE(replayRepro(f.repro).failed);
        EXPECT_TRUE(
            replayRepro(f.repro, Plant::SchedBypassWiden).failed);
    }
}

// ---------------------------------------------------------------- corpus

TEST(FuzzCorpus, ConfigJsonRoundTrip)
{
    // A repro's config lines are the machine-config JSON form: the
    // fuzzed knobs survive the file.
    MachineConfig cfg = MachineConfig::makeIdealLimited(4, 0b010);
    cfg.holeAwareScheduling = false;
    cfg.steering = Steering::DependenceAware;
    cfg.label += "/depsteer";
    ReproFile repro;
    repro.oracle = "cosim";
    repro.configs = {cfg};
    const std::string text = formatRepro(repro);
    EXPECT_NE(text.find("; rbsim-repro-config: " + configKey(cfg) + "\n"),
              std::string::npos)
        << text;
    const ReproFile back = parseRepro(text);
    ASSERT_EQ(back.configs.size(), 1u);
    EXPECT_EQ(configKey(back.configs[0]), configKey(cfg));

    // Lines this build cannot honor fail the parse with an exception,
    // not a factory assertion: a width outside 4/8/16, a mask past the
    // 8-bit level mask, a key this build does not know (the old
    // bypassMask/holeAware spelling included), a missing kind.
    for (const char *bad :
         {R"({"kind":"base","width":0})",
          R"({"kind":"base","width":6})",
          R"({"kind":"ideal","width":4,"bypass_level_mask":263})",
          R"({"kind":"base","width":4,"polled":false})",
          R"({"kind":"Ideal","width":4,"bypassMask":4})",
          R"({"kind":"RB-limited","width":8,"holeAware":false})",
          R"({"width":8})"}) {
        EXPECT_THROW(parseRepro(std::string("; rbsim-repro-oracle: cosim\n"
                                            "; rbsim-repro-config: ") +
                                bad + "\n"),
                     std::invalid_argument)
            << bad;
    }
}

TEST(FuzzCorpus, ReproRoundTripAndReplay)
{
    ReproFile repro;
    repro.oracle = "cosim";
    repro.seed = 0xdeadbeef;
    repro.note = "smoke";
    repro.configs = {MachineConfig::make(MachineKind::Baseline, 4),
                     MachineConfig::make(MachineKind::RbFull, 8)};
    repro.asmText = disassembleProgram(generateProgram(3));

    const ReproFile back = parseRepro(formatRepro(repro));
    EXPECT_EQ(back.oracle, repro.oracle);
    EXPECT_EQ(back.seed, repro.seed);
    EXPECT_EQ(back.note, repro.note);
    ASSERT_EQ(back.configs.size(), 2u);
    EXPECT_EQ(back.configs[1].kind, MachineKind::RbFull);
    EXPECT_NE(back.asmText.find(repro.asmText), std::string::npos);
    // The whole repro file is valid assembly + comments; replay runs it
    // through the real cosim oracle and must be clean.
    EXPECT_FALSE(replayRepro(back).failed);

    // Metadata without a program fails its replay with a diagnostic.
    const OracleResult none =
        replayRepro(parseRepro("; rbsim-repro-oracle: cosim\n"));
    EXPECT_TRUE(none.failed);
    EXPECT_NE(none.detail.find("no program"), std::string::npos)
        << none.detail;

    EXPECT_THROW(parseRepro("halt\n"), std::invalid_argument);
}

TEST(FuzzCorpus, GenLineRoundTripsThePresetThroughReproFiles)
{
    // A repro minted under a bias preset records the preset's knobs in
    // a "gen:" metadata line; parsing must hand the exact options back
    // so the recorded (seed, preset) pair re-derives the recipe.
    ReproFile repro;
    repro.oracle = "cosim";
    repro.seed = 99;
    repro.genJson =
        genOptionsToJson(GenOptions::preset("rb-adversarial")).dump();
    repro.configs = {MachineConfig::make(MachineKind::RbLimited, 8)};
    Rng rng(Rng::mixSeed(repro.seed, 0));
    repro.asmText = disassembleProgram(lowerRecipe(
        generateRecipe(rng, GenOptions::preset("rb-adversarial"))));

    const std::string text = formatRepro(repro);
    EXPECT_NE(text.find("; rbsim-repro-gen: "), std::string::npos);
    const ReproFile back = parseRepro(text);
    EXPECT_EQ(back.genJson, repro.genJson);
    EXPECT_TRUE(genOptionsFromJson(Json::parse(back.genJson)) ==
                GenOptions::preset("rb-adversarial"));
    EXPECT_FALSE(replayRepro(back).failed);

    // A corrupt gen line fails the parse, not a later re-generation.
    EXPECT_THROW(
        parseRepro("; rbsim-repro-oracle: cosim\n"
                   "; rbsim-repro-gen: {\"bogus\": 1}\n"),
        std::invalid_argument);
}

TEST(FuzzCorpus, WindowLimitsRoundTripAndReplayWindowed)
{
    // Checkpoint-restartable replay: a deep failure's repro records a
    // window (fast-forward skip + detailed instruction budget) so
    // replaying it does not resimulate the whole prefix. The window is
    // part of the failure's identity and must round-trip through the
    // file.
    ReproFile repro;
    repro.oracle = "cosim";
    repro.seed = 5;
    repro.configs = {MachineConfig::make(MachineKind::Baseline, 4),
                     MachineConfig::make(MachineKind::RbFull, 8)};
    repro.asmText = R"(
            ldiq r1, 5000
            ldiq r2, 0
        loop:
            addq r2, r1, r2
            subq r1, #1, r1
            bne r1, loop
            halt
    )";
    repro.maxInsts = 1000;
    repro.resumeSkip = 2000;

    const std::string text = formatRepro(repro);
    EXPECT_NE(text.find("; rbsim-repro-max-insts: 1000"),
              std::string::npos);
    EXPECT_NE(text.find("; rbsim-repro-resume-skip: 2000"),
              std::string::npos);
    const ReproFile back = parseRepro(text);
    EXPECT_EQ(back.maxInsts, 1000u);
    EXPECT_EQ(back.resumeSkip, 2000u);
    const OracleResult r = replayRepro(back);
    EXPECT_FALSE(r.failed) << r.detail;

    // A window lying entirely past the program's end is a vacuous
    // pass: the shrinker evaluates candidates under the same limits,
    // so a repro can never move its failure out of its own window.
    ReproFile deep = back;
    deep.resumeSkip = 10'000'000;
    EXPECT_FALSE(replayRepro(deep).failed);
}

// ---------------------------------------------------------------- driver

TEST(FuzzDriver, DeterministicAcrossJobCounts)
{
    // The (case, seed) mapping is independent of the worker count, so a
    // planted campaign finds the same failure seeds with 1 or 4 jobs.
    FuzzOptions opts;
    opts.oracles = {"cosim"};
    opts.plant = Plant::CosimOpcodePair;
    opts.iterations = 12;
    opts.seed = 21;
    opts.shrink = false;
    opts.jobs = 1;
    const FuzzSummary one = runFuzz(opts);
    opts.jobs = 4;
    const FuzzSummary four = runFuzz(opts);
    ASSERT_EQ(one.failures.size(), four.failures.size());
    for (std::size_t i = 0; i < one.failures.size(); ++i)
        EXPECT_EQ(one.failures[i].seed, four.failures[i].seed);
    EXPECT_EQ(one.cases, four.cases);
}

TEST(FuzzDriver, CleanCampaignReportsOk)
{
    FuzzOptions opts;
    opts.oracles = {"cosim", "sched"};
    opts.iterations = 4;
    opts.jobs = 2;
    const FuzzSummary summary = runFuzz(opts);
    EXPECT_TRUE(summary.ok()) << summary.format();
    EXPECT_EQ(summary.cases, 4u);
    // The JSON summary parses and reflects the tallies.
    const Json doc = Json::parse(summary.toJson());
    EXPECT_TRUE(doc.find("ok")->asBool());
    EXPECT_EQ(doc.find("cases")->asU64(), 4u);
}

} // namespace
} // namespace rbsim
