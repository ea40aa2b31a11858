/**
 * @file
 * Tests for TC <-> RB conversion (paper §3.2) and the gate-delay model
 * (paper §3.4).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "rb/convert.hh"
#include "rb/gatedelay.hh"
#include "rb/rbalu.hh"

namespace rbsim
{
namespace
{

TEST(Convert, RippleSubtractorMatchesFastPath)
{
    Rng rng(41);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t p = rng.next();
        const std::uint64_t m = rng.next() & ~p;
        const RbNum x(p, m);
        EXPECT_EQ(rbToTcRipple(x), x.toTc());
    }
}

TEST(Convert, RoundTripThroughArithmetic)
{
    Rng rng(42);
    for (int i = 0; i < 10000; ++i) {
        const Word a = rng.next();
        const Word b = rng.next();
        // TC -> RB (free) -> add -> RB -> TC (the expensive conversion).
        const RbNum sum = rbAdd(RbNum::fromTc(a), RbNum::fromTc(b)).sum;
        EXPECT_EQ(sum.toTc(), a + b);
        EXPECT_EQ(rbToTcRipple(sum), a + b);
    }
}

TEST(GateDelay, RbAdderDepthIsWidthIndependent)
{
    const unsigned d8 = rbAdderDepth(8);
    for (unsigned w : {16u, 32u, 64u, 128u})
        EXPECT_EQ(rbAdderDepth(w), d8);
}

TEST(GateDelay, ClaGrowsLogarithmically)
{
    EXPECT_LT(claAdderDepth(16), claAdderDepth(64));
    EXPECT_EQ(claAdderDepth(64), claAdderDepth(256) - 4);
    // Doubling width adds at most one radix-4 level.
    EXPECT_LE(claAdderDepth(128) - claAdderDepth(64), 4u);
}

TEST(GateDelay, RippleGrowsLinearly)
{
    EXPECT_EQ(rippleAdderDepth(64) - rippleAdderDepth(32), 64u);
}

TEST(GateDelay, PaperRatiosShape)
{
    // Paper section 3.4: the RB adder is about 3x faster than a 64-bit
    // CLA and 2.7x faster than the converter. Our unit-gate model must
    // land in the right neighborhood: at least 2x, no more than 4x.
    const double ratio_cla = static_cast<double>(claAdderDepth(64)) /
                             rbAdderDepth(64);
    EXPECT_GE(ratio_cla, 2.0);
    EXPECT_LE(ratio_cla, 4.0);

    const double ratio_conv = static_cast<double>(converterDepth(64)) /
                              rbAdderDepth(64);
    EXPECT_GE(ratio_conv, 2.0);
    EXPECT_LE(ratio_conv, 4.0);

    // A staggered 2-stage adder's per-stage delay is NOT half a full add:
    // pipelining helps the clock but not the latency (paper section 2).
    EXPECT_GT(2 * staggeredStageDepth(64), claAdderDepth(64));
}

} // namespace
} // namespace rbsim
