/**
 * @file
 * Gate-level digit slice of the redundant binary adder (paper Figure 2).
 *
 * One slice computes three signal groups for digit position i:
 *
 *  - h_i: a function of digit i of both inputs only (the "both digits
 *    nonnegative" predicate that steers the transfer rule),
 *  - f_i: the transfer (intermediate carry) out of position i, a function
 *    of digit i and the neighbor signal h_{i-1},
 *  - s_i: the final sum digit, a function of digit i, h_{i-1}, and the
 *    incoming transfer f_{i-1}.
 *
 * The slice therefore sees only digits i, i-1, and i-2 of the inputs
 * (i-2 indirectly through f_{i-1}) — the bounded carry propagation that
 * gives the adder its width-independent latency. An adder built by
 * chaining slices is bit-for-bit equivalent to the bit-parallel rbAddRaw
 * for every input: tests/test_rb_digit_slice.cc proves it by checking
 * every 3-digit window at every position.
 */

#ifndef RBSIM_RB_DIGIT_SLICE_HH
#define RBSIM_RB_DIGIT_SLICE_HH

#include "rb/rbalu.hh"
#include "rb/rbnum.hh"

namespace rbsim
{

/** Encoded digit as it appears on wires: a (negative, positive) bit pair.
 * Legal encodings: (0,0)=0, (0,1)=+1, (1,0)=-1. */
struct DigitWires
{
    bool neg = false;
    bool pos = false;
};

/** Transfer (intermediate carry) wires out of a slice: at most one set. */
struct TransferWires
{
    bool plus = false;
    bool minus = false;
};

/** All outputs of one digit slice. */
struct SliceOutputs
{
    bool h;            //!< neighbor predicate forwarded to slice i+1
    TransferWires f;   //!< transfer into slice i+1
    DigitWires sum;    //!< final sum digit for position i
};

/**
 * Evaluate one digit slice.
 *
 * @param x digit i of the first operand
 * @param y digit i of the second operand
 * @param h_prev h_{i-1} from the slice below (true below digit 0)
 * @param f_prev f_{i-1}, the transfer from the slice below (zero below
 *               digit 0)
 */
SliceOutputs evalDigitSlice(DigitWires x, DigitWires y, bool h_prev,
                            TransferWires f_prev);

/**
 * A full adder built by chaining 64 digit slices. Returns raw (un-
 * normalized) digits and carry-out, like rbAddRaw.
 */
RbRawSum addBySlices(const RbNum &x, const RbNum &y);

} // namespace rbsim

#endif // RBSIM_RB_DIGIT_SLICE_HH
