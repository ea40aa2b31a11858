/**
 * @file
 * Tests for the redundant binary tree multiplier (paper section 2's
 * historic application of RB arithmetic): value correctness against
 * 64-bit two's complement multiplication, both the digit-direct and the
 * Booth-recoded variants, and the constant-per-level delay model.
 */

#include <gtest/gtest.h>

#include <array>
#include <utility>

#include "common/rng.hh"
#include "rb/gatedelay.hh"
#include "rb/multiplier.hh"

namespace rbsim
{
namespace
{

RbNum
messy(Rng &rng, Word v)
{
    RbNum x = RbNum::fromTc(v);
    const Word t = rng.next();
    x = rbAdd(x, RbNum::fromTc(t)).sum;
    return rbSub(x, RbNum::fromTc(t)).sum;
}

TEST(RbMultiplier, DigitTreeMatchesTcMultiply)
{
    Rng rng(81);
    for (int i = 0; i < 4000; ++i) {
        const Word a = rng.next();
        const Word b = rng.next();
        const RbMulResult r =
            rbTreeMultiply(messy(rng, a), messy(rng, b));
        EXPECT_EQ(r.product.toTc(), a * b) << a << " * " << b;
    }
}

TEST(RbMultiplier, BoothTreeMatchesTcMultiply)
{
    Rng rng(82);
    for (int i = 0; i < 4000; ++i) {
        const Word a = rng.next();
        const Word b = rng.next();
        const RbMulResult r =
            rbTreeMultiplyBooth(messy(rng, a), messy(rng, b));
        EXPECT_EQ(r.product.toTc(), a * b) << a << " * " << b;
    }
}

TEST(RbMultiplier, SmallAndEdgeValues)
{
    const Word cases[] = {0, 1, 2, 3, 7, 0xff, 0x8000000000000000ull,
                          0x7fffffffffffffffull, ~Word{0}};
    for (Word a : cases) {
        for (Word b : cases) {
            EXPECT_EQ(rbTreeMultiply(RbNum::fromTc(a),
                                     RbNum::fromTc(b)).product.toTc(),
                      a * b);
            EXPECT_EQ(rbTreeMultiplyBooth(RbNum::fromTc(a),
                                          RbNum::fromTc(b))
                          .product.toTc(),
                      a * b);
        }
    }
}

TEST(RbMultiplier, ZeroMultiplierShortCircuits)
{
    const RbMulResult r =
        rbTreeMultiply(RbNum::fromTc(12345), RbNum());
    EXPECT_TRUE(r.product.isZero());
    EXPECT_EQ(r.treeLevels, 0u);
}

TEST(RbMultiplier, TreeDepthIsLogarithmic)
{
    Rng rng(83);
    const RbMulResult full = rbTreeMultiply(
        RbNum::fromTc(rng.next() | 1), RbNum::fromTc(~Word{0}));
    // ~64 partial products -> ceil(log2) = 6 reduction levels.
    EXPECT_LE(full.treeLevels, 7u);
    EXPECT_GE(full.treeLevels, 6u);

    const RbMulResult booth = rbTreeMultiplyBooth(
        RbNum::fromTc(rng.next() | 1),
        RbNum::fromTc(0x5555555555555555ull));
    EXPECT_LE(booth.treeLevels, 6u);
}

TEST(RbMultiplier, EveryPartialProductCountReducesInCeilLog2Levels)
{
    // One partial product per nonzero multiplier digit, so a multiplier
    // with exactly k nonzero digits reduces k lanes: even counts, odd
    // counts whose leftover passes through one or more rounds, and the
    // full 64.
    Rng rng(85);
    for (const unsigned k : {1u, 2u, 3u, 5u, 33u, 63u, 64u}) {
        unsigned want_levels = 0;
        while ((1u << want_levels) < k)
            ++want_levels;
        for (int trial = 0; trial < 50; ++trial) {
            // k distinct digit positions, each +1 or -1.
            std::array<unsigned, 64> pos;
            for (unsigned i = 0; i < 64; ++i)
                pos[i] = i;
            for (unsigned i = 0; i < k; ++i)
                std::swap(pos[i], pos[i + rng.below(64 - i)]);
            std::uint64_t plus = 0, minus = 0;
            for (unsigned i = 0; i < k; ++i) {
                const std::uint64_t bit = std::uint64_t{1} << pos[i];
                (rng.chance(1, 2) ? plus : minus) |= bit;
            }
            const RbNum a = RbNum::fromTc(rng.next());
            const RbNum b(plus, minus);
            const RbMulResult r = rbTreeMultiply(a, b);
            ASSERT_EQ(r.treeLevels, want_levels) << "k " << k;
            ASSERT_EQ(r.product.toTc(), a.toTc() * b.toTc())
                << "k " << k << " trial " << trial;
        }
    }
}

TEST(RbMultiplier, BoothHalvesModeledDepth)
{
    EXPECT_LT(rbMulTreeDepth(64, true), rbMulTreeDepth(64, false));
    // Each level costs one constant adder delay, independent of width.
    EXPECT_EQ(rbMulTreeDepth(64, false) - rbMulTreeDepth(32, false),
              rbAdderDepth(64));
}

TEST(RbMultiplier, NegativeDigitOperandsExerciseFreeNegation)
{
    // A multiplier value whose representation is rich in -1 digits
    // (subtraction results) must still multiply exactly.
    Rng rng(84);
    for (int i = 0; i < 2000; ++i) {
        const Word a = rng.next();
        const Word big = rng.next() | 0x8000000000000000ull;
        const Word small = rng.next() & 0xffff;
        const RbNum b = rbSub(RbNum::fromTc(small),
                              RbNum::fromTc(big)).sum;
        EXPECT_EQ(rbTreeMultiply(RbNum::fromTc(a), b).product.toTc(),
                  a * (small - big));
    }
}

} // namespace
} // namespace rbsim
