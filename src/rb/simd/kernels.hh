/**
 * @file
 * Name of the RB kernel backend. The simulator has one adder, evaluated
 * per instruction by rbAdd/rbScaledAdd (rb/rbalu.hh), so there is no
 * backend to choose; see docs/PERFORMANCE.md §6.
 */

#ifndef RBSIM_RB_SIMD_KERNELS_HH
#define RBSIM_RB_SIMD_KERNELS_HH

namespace rbsim::simd
{

/**
 * Always "scalar". It exists because the repository benchmark
 * (perfbench/src/common.cc) writes it into the `simd_backend` field of
 * every dump's provenance block.
 */
inline const char *
backendName()
{
    return "scalar";
}

} // namespace rbsim::simd

#endif // RBSIM_RB_SIMD_KERNELS_HH
