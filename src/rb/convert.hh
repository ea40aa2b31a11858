/**
 * @file
 * Conversions between two's complement and redundant binary (section 3.2).
 *
 * TC -> RB needs no logic (the paper's hardwired mapping, provided by
 * RbNum::fromTc). RB -> TC is the expensive direction: a full
 * borrow-propagating subtraction X+ - X-. The simulator uses the host's
 * subtraction; `rbToTcRipple` additionally models the bit-serial borrow
 * chain explicitly so tests can validate the circuit formulation and the
 * gate-delay model can point at a concrete structure.
 */

#ifndef RBSIM_RB_CONVERT_HH
#define RBSIM_RB_CONVERT_HH

#include "rb/rbnum.hh"

namespace rbsim
{

/**
 * RB -> TC via an explicit bit-serial borrow-propagating subtractor,
 * mirroring the conversion circuit structure. Equivalent to
 * RbNum::toTc; tests/test_rbalu.cc checks it on every operand its
 * sweeps enumerate.
 */
Word rbToTcRipple(const RbNum &x);

} // namespace rbsim

#endif // RBSIM_RB_CONVERT_HH
