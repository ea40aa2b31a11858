#include "rb/digit_slice.hh"

namespace rbsim
{

SliceOutputs
evalDigitSlice(DigitWires x, DigitWires y, bool h_prev, TransferWires f_prev)
{
    // Digit-sum classification for position i (z = x + y).
    const bool z_p2 = x.pos && y.pos;
    const bool z_m2 = x.neg && y.neg;
    const bool z_p1 = (x.pos != y.pos) && !x.neg && !y.neg;
    const bool z_m1 = (x.neg != y.neg) && !x.pos && !y.pos;
    const bool z_abs1 = z_p1 || z_m1;

    SliceOutputs out;

    // h_i: both digits at position i are nonnegative.
    out.h = !x.neg && !y.neg;

    // f_i: transfer out of position i, steered by h_{i-1}.
    out.f.plus = z_p2 || (z_p1 && h_prev);
    out.f.minus = z_m2 || (z_m1 && !h_prev);

    // Interim digit d_i: nonzero only when |z| == 1; its sign is chosen so
    // it can never collide with an incoming transfer of the same sign.
    const bool d_plus = z_abs1 && !h_prev;
    const bool d_minus = z_abs1 && h_prev;

    // s_i = d_i + f_{i-1}; same-sign collisions are impossible and
    // opposite signs cancel.
    out.sum.pos = (d_plus && !f_prev.minus) || (f_prev.plus && !d_minus);
    out.sum.neg = (d_minus && !f_prev.plus) || (f_prev.minus && !d_plus);

    return out;
}

RbRawSum
addBySlices(const RbNum &x, const RbNum &y)
{
    std::uint64_t sum_plus = 0;
    std::uint64_t sum_minus = 0;

    bool h_prev = true;          // below digit 0 everything is "nonnegative"
    TransferWires f_prev{};      // no transfer into digit 0

    TransferWires f_out{};
    for (unsigned i = 0; i < 64; ++i) {
        const std::uint64_t m = std::uint64_t{1} << i;
        const DigitWires xd{(x.minus() & m) != 0, (x.plus() & m) != 0};
        const DigitWires yd{(y.minus() & m) != 0, (y.plus() & m) != 0};

        const SliceOutputs out = evalDigitSlice(xd, yd, h_prev, f_prev);

        if (out.sum.pos)
            sum_plus |= m;
        if (out.sum.neg)
            sum_minus |= m;

        h_prev = out.h;
        f_prev = out.f;
        f_out = out.f;
    }

    int carry_out = 0;
    if (f_out.plus)
        carry_out = 1;
    else if (f_out.minus)
        carry_out = -1;

    return RbRawSum{RbNum(sum_plus, sum_minus), carry_out};
}

} // namespace rbsim
