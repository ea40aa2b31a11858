/**
 * @file
 * Heap-allocation accounting for the zero-alloc hot-path invariant
 * (docs/PERFORMANCE.md).
 *
 * The counters live in the core library so any code can read them, but
 * they only move when the counting operator new/delete replacement in
 * common/allochook.cc is linked into the executable (the `rbsim-
 * allochook` CMake target; linked by the bench binaries and
 * tests/test_allocfree). Counting is per-thread, so a parallel bench
 * sweep still attributes allocations to the cell running on the thread.
 *
 * Counting is off until enable(true); the bench harness's --profile and
 * tests/test_allocfree turn it on.
 */

#ifndef RBSIM_COMMON_ALLOCCOUNT_HH
#define RBSIM_COMMON_ALLOCCOUNT_HH

#include <cstdint>

namespace rbsim::alloccount
{

/** True when the counting operator new replacement is linked in. */
bool hooked();

/** Turn counting on/off (process-wide). */
void enable(bool on);

/** Is counting currently on? */
bool enabled();

/** Heap allocations observed on the calling thread while enabled. */
std::uint64_t threadCount();

// ------------------------------------------------------------------
// Internals shared with the hook translation unit.

namespace detail
{
extern thread_local std::uint64_t t_allocs;
extern bool g_hooked;
extern bool g_enabled;
} // namespace detail

/** Called once by the hook TU's initializer. */
void markHooked();

} // namespace rbsim::alloccount

#endif // RBSIM_COMMON_ALLOCCOUNT_HH
