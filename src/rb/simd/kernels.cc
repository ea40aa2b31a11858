/**
 * @file
 * The batched RB kernels: loops over the lane_math.hh formulas.
 */

#include "rb/simd/kernels.hh"

#include "rb/simd/lane_math.hh"

namespace rbsim::simd
{

void
scaledAddBatch(const std::uint64_t *ap, const std::uint64_t *am,
               const std::uint8_t *shift, const std::uint64_t *bp,
               const std::uint64_t *bm, std::uint64_t *sp,
               std::uint64_t *sm, std::uint8_t *bogus, std::uint8_t *ovf,
               std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const LanePair a = laneShiftLeftDigits(ap[i], am[i], shift[i]);
        const LaneAdd r = laneAdd(a.plus, a.minus, bp[i], bm[i]);
        sp[i] = r.plus;
        sm[i] = r.minus;
        bogus[i] = static_cast<std::uint8_t>(r.bogus);
        ovf[i] = static_cast<std::uint8_t>(r.ovf);
    }
}

unsigned
mulReduce(std::uint64_t *p, std::uint64_t *m, std::size_t n)
{
    unsigned levels = 0;
    while (n > 1) {
        std::size_t out = 0;
        for (std::size_t i = 0; i + 1 < n; i += 2) {
            const LaneAdd r = laneAdd(p[i], m[i], p[i + 1], m[i + 1]);
            p[out] = r.plus;
            m[out] = r.minus;
            ++out;
        }
        if (n % 2) {
            p[out] = p[n - 1];
            m[out] = m[n - 1];
            ++out;
        }
        n = out;
        ++levels;
    }
    return levels;
}

} // namespace rbsim::simd
