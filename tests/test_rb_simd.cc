/**
 * @file
 * Batch-vs-scalar equivalence for the batched redundant binary kernels
 * (rb/simd/kernels.hh). Each kernel must agree bit-for-bit with the
 * scalar reference functions (rbAdd, rbSub, rbScaledAdd, the
 * multiplier's pairwise reduction) across every batch length from 0
 * through 65, and every output must keep the disjoint plane invariant
 * (plus & minus == 0). Adder inputs are MSD-normalized, the datapath's
 * domain.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/rng.hh"
#include "rb/overflow.hh"
#include "rb/rbalu.hh"
#include "rb/simd/kernels.hh"
#include "rb/simd/rb_batch.hh"

namespace rbsim
{
namespace
{

// The empty batch, odd and even lengths (mulReduce's leftover lane),
// and one past a 64-lane batch.
constexpr std::size_t maxLanes = 65;

struct Planes
{
    std::array<std::uint64_t, maxLanes> p{};
    std::array<std::uint64_t, maxLanes> m{};
};

/** Normalized (MSD re-signed) digits — the adder's domain. Every value
 * the datapath holds is a fromTc conversion or a normalized adder
 * output, both with unwrapped value in [-2^63, 2^63); rbAdd's overflow
 * rules (and the assert in normalizeQuad) assume exactly that. */
void
fillNormalized(Rng &rng, Planes &x, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t p = rng.next();
        const RbNum v = normalizeMsd(RbNum(p, rng.next() & ~p));
        x.p[i] = v.plus();
        x.m[i] = v.minus();
    }
}

void
expectDisjoint(const Planes &x, std::size_t n, const char *what)
{
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(x.p[i] & x.m[i], 0u) << what << " lane " << i;
}

TEST(RbSimd, ScaledAddBatchMatchesRbScaledAdd)
{
    Rng rng(103);
    for (std::size_t lanes = 0; lanes <= maxLanes; ++lanes) {
        Planes a, b, s;
        std::array<std::uint8_t, maxLanes> shift{}, bogus{}, ovf{};
        fillNormalized(rng, a, lanes);
        fillNormalized(rng, b, lanes);
        for (std::size_t i = 0; i < lanes; ++i) {
            // Mix shift-0 (the plain-add degenerate case, which must
            // NOT re-sign the MSD) with the full shift range.
            shift[i] = rng.chance(1, 3)
                ? 0
                : static_cast<std::uint8_t>(rng.below(64));
        }
        simd::scaledAddBatch(a.p.data(), a.m.data(), shift.data(),
                             b.p.data(), b.m.data(), s.p.data(),
                             s.m.data(), bogus.data(), ovf.data(), lanes);
        expectDisjoint(s, lanes, "scaledadd");
        for (std::size_t i = 0; i < lanes; ++i) {
            const RbAddResult r = rbScaledAdd(RbNum(a.p[i], a.m[i]),
                                              shift[i],
                                              RbNum(b.p[i], b.m[i]));
            ASSERT_EQ(s.p[i], r.sum.plus())
                << "lane " << i << " shift " << int(shift[i]);
            ASSERT_EQ(s.m[i], r.sum.minus())
                << "lane " << i << " shift " << int(shift[i]);
            ASSERT_EQ(bogus[i] != 0, r.bogusCorrected) << "lane " << i;
            ASSERT_EQ(ovf[i] != 0, r.tcOverflow) << "lane " << i;
        }
    }
}

TEST(RbSimd, MulReduceMatchesPairwiseTree)
{
    Rng rng(107);
    for (std::size_t lanes = 0; lanes <= maxLanes; ++lanes) {
        Planes x;
        fillNormalized(rng, x, lanes);

        // Reference: the multiplier's pairwise reduction — rounds of
        // out[j] = rbAdd(lane[2j], lane[2j+1]) with an odd leftover
        // passed through.
        std::vector<RbNum> ref;
        for (std::size_t i = 0; i < lanes; ++i)
            ref.emplace_back(x.p[i], x.m[i]);
        unsigned ref_levels = 0;
        while (ref.size() > 1) {
            std::vector<RbNum> next;
            for (std::size_t j = 0; j + 1 < ref.size(); j += 2)
                next.push_back(rbAdd(ref[j], ref[j + 1]).sum);
            if (ref.size() & 1)
                next.push_back(ref.back());
            ref = std::move(next);
            ++ref_levels;
        }

        const unsigned levels = simd::mulReduce(x.p.data(), x.m.data(),
                                                lanes);
        ASSERT_EQ(levels, ref_levels) << "n " << lanes;
        if (lanes > 0) {
            ASSERT_EQ(x.p[0] & x.m[0], 0u);
            ASSERT_EQ(x.p[0], ref.front().plus()) << "n " << lanes;
            ASSERT_EQ(x.m[0], ref.front().minus()) << "n " << lanes;
        }
    }
}

TEST(RbSimd, RbBatchLanesEvaluateLikeTheScalarOps)
{
    // The container the core's execute stage uses, driven the way
    // OooCore drives it: mixed add/sub/scaled-add lanes, one run() call.
    Rng rng(109);
    simd::RbBatch batch(64);
    for (int trial = 0; trial < 200; ++trial) {
        batch.clear();
        const std::size_t n = static_cast<std::size_t>(rng.below(65));
        std::vector<RbAddResult> ref;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t ap = rng.next();
            const RbNum a = normalizeMsd(RbNum(ap, rng.next() & ~ap));
            const std::uint64_t bp = rng.next();
            const RbNum b = normalizeMsd(RbNum(bp, rng.next() & ~bp));
            switch (rng.below(3)) {
              case 0:
                ASSERT_EQ(batch.pushAdd(a, b), i);
                ref.push_back(rbAdd(a, b));
                break;
              case 1:
                ASSERT_EQ(batch.pushSub(a, b), i);
                ref.push_back(rbSub(a, b));
                break;
              default: {
                const unsigned k = rng.chance(1, 2) ? 2 : 3;
                ASSERT_EQ(batch.pushScaledAdd(a, k, b), i);
                ref.push_back(rbScaledAdd(a, k, b));
                break;
              }
            }
        }
        ASSERT_EQ(batch.size(), n);
        batch.run();
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(batch.sum(i).plus(), ref[i].sum.plus());
            ASSERT_EQ(batch.sum(i).minus(), ref[i].sum.minus());
            ASSERT_EQ(batch.bogusCorrected(i), ref[i].bogusCorrected);
            ASSERT_EQ(batch.tcOverflow(i), ref[i].tcOverflow);
        }
    }
}

} // namespace
} // namespace rbsim
