/**
 * @file
 * Batched redundant binary kernels.
 *
 * Both kernels operate on structure-of-arrays operands: contiguous
 * `plus[]` / `minus[]` plane arrays (see rb_batch.hh for the container
 * the core uses). They are plain loops over the straight-line formulas
 * in lane_math.hh, the single rendering of the batched RB adder, so
 * proving or fuzzing those formulas covers every batched add the
 * simulator performs. See docs/PERFORMANCE.md §6.
 */

#ifndef RBSIM_RB_SIMD_KERNELS_HH
#define RBSIM_RB_SIMD_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace rbsim::simd
{

/**
 * sum[i] = normalize((a[i] << shift[i]) + b[i]) — the batched
 * rbScaledAdd. A lane with shift[i] == 0 is exactly rbAdd (no MSD
 * re-sign of the unshifted operand, matching rbShiftLeftDigits' k == 0
 * identity), and rbSub is a lane whose b planes were swapped. `bogus[i]`
 * and `ovf[i]` receive the bogusCorrected / tcOverflow flags as 0/1
 * bytes. shift[i] must be < 64; `n` is a lane count. Output arrays may
 * alias the inputs lane-for-lane.
 */
void scaledAddBatch(const std::uint64_t *ap, const std::uint64_t *am,
                    const std::uint8_t *shift, const std::uint64_t *bp,
                    const std::uint64_t *bm, std::uint64_t *sp,
                    std::uint64_t *sm, std::uint8_t *bogus,
                    std::uint8_t *ovf, std::size_t n);

/**
 * In-place pairwise tree reduction of n partial products (the
 * multiplier's reduceTree): repeated rounds of
 * out[j] = normalize(lane[2j] + lane[2j+1]) with an odd leftover
 * passed through, until one lane remains in (p[0], m[0]). Returns
 * the number of rounds. n == 0 is a no-op returning 0.
 */
unsigned mulReduce(std::uint64_t *p, std::uint64_t *m, std::size_t n);

/**
 * Name of the kernel backend: always "scalar", since there is one. It
 * exists because the repository benchmark (perfbench/src/common.cc)
 * writes it into the `simd_backend` field of every dump's provenance
 * block.
 */
inline const char *
backendName()
{
    return "scalar";
}

} // namespace rbsim::simd

#endif // RBSIM_RB_SIMD_KERNELS_HH
