#include "rb/multiplier.hh"

#include <array>
#include <cstdlib>

#include "common/bitutil.hh"
#include "rb/gatedelay.hh"

namespace rbsim
{

namespace
{

/**
 * Partial products on the stack, reduced pairwise by the carry-free
 * adder (rbAdd): each round is one adder delay regardless of operand
 * width, and an odd leftover passes through to the next round. The
 * multiply sits on the simulator's execute path, so nothing here
 * touches the heap (docs/PERFORMANCE.md).
 */
struct PartialProducts
{
    std::array<RbNum, 64> pp;
    std::size_t n = 0;

    void push(const RbNum &x) { pp[n++] = x; }

    RbMulResult
    reduce()
    {
        unsigned levels = 0;
        while (n > 1) {
            std::size_t out = 0;
            for (std::size_t i = 0; i + 1 < n; i += 2)
                pp[out++] = rbAdd(pp[i], pp[i + 1]).sum;
            if (n % 2)
                pp[out++] = pp[n - 1];
            n = out;
            ++levels;
        }
        return RbMulResult{pp[0], levels}; // zero when there are none
    }
};

/** -x with the unwrapped value renormalized into 64-bit range. */
RbNum
negNormalized(const RbNum &x)
{
    return normalizeMsd(rbNegate(x));
}

} // namespace

RbMulResult
rbTreeMultiply(const RbNum &a, const RbNum &b)
{
    // Partial products straight from the multiplier's *digits*: no
    // conversion of b is needed, and negative digits cost only the free
    // plane swap.
    PartialProducts pps;
    for (unsigned i = 0; i < 64; ++i) {
        switch (b.digit(i)) {
          case Digit::Zero:
            break;
          case Digit::Plus:
            pps.push(rbShiftLeftDigits(a, i));
            break;
          case Digit::Minus:
            pps.push(negNormalized(rbShiftLeftDigits(a, i)));
            break;
        }
    }
    return pps.reduce();
}

RbMulResult
rbTreeMultiplyBooth(const RbNum &a, const RbNum &b)
{
    // Radix-4 Booth recode of the multiplier's two's complement view:
    // m_j in {-2,-1,0,1,2} from bit triples; +-a and +-2a are free in
    // the redundant representation.
    const Word w = b.toTc();
    PartialProducts pps;
    for (unsigned j = 0; j < 32; ++j) {
        const unsigned lo = 2 * j;
        const int b_m1 = lo == 0 ? 0 : static_cast<int>(bit(w, lo - 1));
        const int b_0 = static_cast<int>(bit(w, lo));
        const int b_1 = static_cast<int>(bit(w, lo + 1));
        const int m = b_m1 + b_0 - 2 * b_1;
        if (m == 0)
            continue;
        RbNum pp = rbShiftLeftDigits(a, lo + (std::abs(m) == 2 ? 1 : 0));
        if (m < 0)
            pp = negNormalized(pp);
        pps.push(pp);
    }
    return pps.reduce();
}

unsigned
rbMulTreeDepth(unsigned width, bool booth)
{
    // Partial-product generation (recode/select), then one constant
    // adder delay per tree level.
    unsigned pps = booth ? width / 2 : width;
    unsigned levels = 0;
    while (pps > 1) {
        pps = (pps + 1) / 2;
        ++levels;
    }
    return (booth ? 3 : 2) + levels * rbAdderDepth(width);
}

} // namespace rbsim
