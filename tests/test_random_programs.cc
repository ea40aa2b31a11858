/**
 * @file
 * Randomized whole-pipeline fuzzing: structured random programs from the
 * fuzz generator library (counted loops over random bodies of
 * arithmetic, logicals, shifts, compares, cmovs, byte ops, multiplies,
 * loads/stores into a sandbox, forward branches, leaf calls, and a
 * data-dependent jump table), each run on all four machines — and
 * limited-bypass and steering variants — under lockstep co-simulation.
 * Any timing-model bug that corrupts architectural state (wrong bypass,
 * bad squash, stale operand, LSQ ordering violation) trips the checker.
 *
 * This is the fixed-matrix regression sibling of rbsim-fuzz: the same
 * generator, a deterministic seed range, and a hand-picked config set
 * covering every machine variant. Open-ended exploration (fuzzed
 * configs, scheduler parity, shrinking) lives in the rbsim-fuzz tool.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "fuzz/generator.hh"
#include "sim/cosim.hh"

namespace rbsim
{
namespace
{

TEST(FuzzGenerator, LoweringIsDeterministic)
{
    // The shrinker depends on lowering being a pure function of the
    // recipe: same recipe, same program.
    Rng rng(7);
    const fuzz::ProgRecipe recipe =
        fuzz::generateRecipe(rng, fuzz::GenOptions());
    const Program a = fuzz::lowerRecipe(recipe);
    const Program b = fuzz::lowerRecipe(recipe);
    ASSERT_EQ(a.code.size(), b.code.size());
    for (std::size_t i = 0; i < a.code.size(); ++i)
        EXPECT_TRUE(a.code[i] == b.code[i]) << "inst " << i;
}

class RandomPrograms : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomPrograms, CosimCleanOnAllMachineVariants)
{
    const Program prog = fuzz::generateProgram(GetParam());

    std::vector<MachineConfig> configs;
    for (MachineKind kind : {MachineKind::Baseline, MachineKind::RbLimited,
                             MachineKind::RbFull, MachineKind::Ideal}) {
        for (unsigned width : {4u, 8u})
            configs.push_back(MachineConfig::make(kind, width));
    }
    {
        MachineConfig c = MachineConfig::makeIdealLimited(8, 0b001);
        configs.push_back(c);
        c = MachineConfig::makeIdealLimited(4, 0b100);
        configs.push_back(c);
        c = MachineConfig::make(MachineKind::RbLimited, 8);
        c.holeAwareScheduling = false;
        configs.push_back(c);
        c = MachineConfig::make(MachineKind::RbFull, 8);
        c.steering = Steering::DependenceAware;
        configs.push_back(c);
        c = MachineConfig::make(MachineKind::RbLimited, 8);
        c.steering = Steering::ClassPartition;
        configs.push_back(c);
    }

    Word golden_checksum = 0;
    bool have_golden = false;
    for (const MachineConfig &cfg : configs) {
        OooCore core(cfg, prog);
        CosimChecker checker(prog);
        core.onRetire(
            [&checker](const RobEntry &e) { checker.onRetire(e); });
        ASSERT_TRUE(core.run(3'000'000)) << cfg.label;
        ASSERT_EQ(checker.checked(), core.stats().retired) << cfg.label;
        ASSERT_GT(core.stats().retired, 500u);
        // All machines must agree on final architectural memory.
        Word checksum = 0;
        for (unsigned i = 0; i < 8; ++i)
            checksum ^= core.committedMem().read64(
                            fuzz::fuzzSandboxBase + i * 8) +
                        i * 0x9e3779b9;
        if (!have_golden) {
            golden_checksum = checksum;
            have_golden = true;
        } else {
            ASSERT_EQ(checksum, golden_checksum) << cfg.label;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{21}));

} // namespace
} // namespace rbsim
