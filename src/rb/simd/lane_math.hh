/**
 * @file
 * Branchless per-lane formulation of the redundant binary adder.
 *
 * The batch kernels (kernels.hh) evaluate these straight-line bit-plane
 * formulas one lane at a time; this header is the only place the
 * batched adder's math is written down.
 *
 * The formulas are the branchless rendering of the reference scalar
 * path (`rbAddRaw` + `normalizeQuad` + `rbShiftLeftDigits`);
 * tests/test_rb_simd.cc asserts exact agreement with those reference
 * functions over random plane pairs and all carry/overflow corner
 * cases, and cosim checks every batched result the core retires.
 *
 * One non-obvious identity used throughout: the planes of a legal
 * number are disjoint, so "the most significant nonzero digit in a
 * range is -1" is exactly the unsigned comparison
 * `(minus & range) > (plus & range)` — no digit scan needed.
 */

#ifndef RBSIM_RB_SIMD_LANE_MATH_HH
#define RBSIM_RB_SIMD_LANE_MATH_HH

#include <cstdint>

namespace rbsim::simd
{

/** One lane's fully-normalized add result. */
struct LaneAdd
{
    std::uint64_t plus;
    std::uint64_t minus;
    std::uint64_t bogus; //!< 1 iff a bogus overflow was cancelled
    std::uint64_t ovf;   //!< 1 iff two's complement overflow
};

/**
 * Raw carry-free addition, identical to rbAddRaw but with the carry-out
 * kept as the top bit of the transfer planes (tp63/tm63) instead of an
 * int. Pure bit-plane logic; every operation is lane-local.
 */
struct LaneRaw
{
    std::uint64_t plus;
    std::uint64_t minus;
    std::uint64_t tp63; //!< 0/1: positive carry out of digit 63
    std::uint64_t tm63; //!< 0/1: negative carry out of digit 63
};

inline LaneRaw
laneAddRaw(std::uint64_t xp, std::uint64_t xm, std::uint64_t yp,
           std::uint64_t ym)
{
    // Per-position digit sums z_i = x_i + y_i, classified by value.
    const std::uint64_t z_p2 = xp & yp;
    const std::uint64_t z_m2 = xm & ym;
    const std::uint64_t z_p1 = (xp ^ yp) & ~xm & ~ym;
    const std::uint64_t z_m1 = (xm ^ ym) & ~xp & ~yp;

    // bn1_i = "both digits at position i-1 nonnegative" (true below 0).
    const std::uint64_t bn = ~xm & ~ym;
    const std::uint64_t bn1 = (bn << 1) | 1;

    // Transfer t and interim digit d per the signed-digit rule.
    const std::uint64_t t_plus = z_p2 | (z_p1 & bn1);
    const std::uint64_t t_minus = z_m2 | (z_m1 & ~bn1);
    const std::uint64_t d_plus = (z_p1 | z_m1) & ~bn1;
    const std::uint64_t d_minus = (z_p1 | z_m1) & bn1;

    const std::uint64_t c_plus = t_plus << 1;
    const std::uint64_t c_minus = t_minus << 1;

    LaneRaw r;
    r.plus = (d_plus & ~c_minus) | (c_plus & ~d_minus);
    r.minus = (d_minus & ~c_plus) | (c_minus & ~d_plus);
    r.tp63 = t_plus >> 63;
    r.tm63 = t_minus >> 63;
    return r;
}

/**
 * Section 3.5 normalization of a raw sum (branchless normalizeQuad):
 * cancel bogus overflow, flag genuine overflow, re-sign the MSD so the
 * unwrapped value lands in [-2^63, 2^63).
 */
inline LaneAdd
laneNormalizeQuad(LaneRaw r)
{
    const std::uint64_t msd = std::uint64_t{1} << 63;

    // Step 1: bogus overflow — carry-out and MSD of opposite signs
    // cancel (<1,-1> -> <0,1> at positions 64/63, and the mirror).
    const std::uint64_t bogus_p = r.tp63 & (r.minus >> 63);
    const std::uint64_t bogus_m = r.tm63 & (r.plus >> 63);
    std::uint64_t sp = (r.plus & ~(bogus_m << 63)) | (bogus_p << 63);
    std::uint64_t sm = (r.minus & ~(bogus_p << 63)) | (bogus_m << 63);
    const std::uint64_t cp = r.tp63 & ~bogus_p;
    const std::uint64_t cm = r.tm63 & ~bogus_m;

    // Step 2: a surviving carry is a genuine two's complement overflow
    // (the MSD is provably zero then; the carry is simply dropped).
    std::uint64_t ovf = cp | cm;

    // Step 3: re-sign the MSD. "Rest is negative" == its most
    // significant nonzero digit is -1 == (sm & rest) > (sp & rest),
    // because the planes are disjoint.
    const std::uint64_t rest = msd - 1;
    const std::uint64_t rest_neg = (sm & rest) > (sp & rest) ? 1u : 0u;
    const std::uint64_t flip_up = (sp >> 63) & (rest_neg ^ 1);
    const std::uint64_t flip_down = (sm >> 63) & rest_neg;
    sp = (sp & ~(flip_up << 63)) | (flip_down << 63);
    sm = (sm & ~(flip_down << 63)) | (flip_up << 63);
    ovf |= flip_up | flip_down;

    return LaneAdd{sp, sm, bogus_p | bogus_m, ovf};
}

/** Full normalized add: rbAdd's value and flags, branchlessly. */
inline LaneAdd
laneAdd(std::uint64_t xp, std::uint64_t xm, std::uint64_t yp,
        std::uint64_t ym)
{
    return laneNormalizeQuad(laneAddRaw(xp, xm, yp, ym));
}

/** One lane's plane pair (shift results carry no flags). */
struct LanePair
{
    std::uint64_t plus;
    std::uint64_t minus;
};

/**
 * Digit left shift with MSD re-sign (rbShiftLeftDigits): shift both
 * planes, then renormalize the top digit — except for k == 0, which is
 * the identity (the scalar reference returns the operand untouched, so
 * a k == 0 lane must not be re-signed: operands from the fuzz oracles'
 * redundant-encoding space may be unnormalized).
 */
inline LanePair
laneShiftLeftDigits(std::uint64_t xp, std::uint64_t xm, unsigned k)
{
    const std::uint64_t enable =
        k == 0 ? 0 : ~std::uint64_t{0}; // all-ones when k != 0
    std::uint64_t sp = xp << k;
    std::uint64_t sm = xm << k;
    const std::uint64_t rest = (std::uint64_t{1} << 63) - 1;
    const std::uint64_t rest_neg = (sm & rest) > (sp & rest) ? 1u : 0u;
    const std::uint64_t flip_up = (sp >> 63) & (rest_neg ^ 1) & enable;
    const std::uint64_t flip_down = (sm >> 63) & rest_neg & enable;
    sp = (sp & ~(flip_up << 63)) | (flip_down << 63);
    sm = (sm & ~(flip_down << 63)) | (flip_up << 63);
    return LanePair{sp, sm};
}

} // namespace rbsim::simd

#endif // RBSIM_RB_SIMD_LANE_MATH_HH
