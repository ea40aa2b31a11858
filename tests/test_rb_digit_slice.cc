/**
 * @file
 * Tests for the gate-level digit slice (paper Figure 2): bit-for-bit
 * equivalence with the bit-parallel adder, legality of all wire
 * encodings, and the locality of the h/f signal structure.
 *
 * Together these prove Fig. 2's equivalence for every pair of 64-digit
 * inputs, not only sampled ones. `rbAddRaw` computes sum digit i from
 * digits i, i-1 and i-2 of both operands with bitwise operations and
 * `<< 1` only, so it is one function of that window at every position.
 * The slice chain is one too: the exhaustive per-slice tests below show
 * that h_i reads only digit i (HDependsOnlyOnOwnDigits) and f_i only
 * digit i and h_{i-1} (FIndependentOfFPrev), so s_i reads digits i, i-1
 * and i-2 and the carry-out reads digits 63 and 62. The window check
 * (SumDigitMatchesBitParallelAdderOverEveryWindow) enumerates every
 * assignment of that window at every position, so two local functions
 * that agree there agree on every input. SliceValueIdentity and
 * OutputsAreLegalDigitEncodings then make each slice exact and legal;
 * tests/test_rbalu.cc carries the argument on through normalization.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hh"
#include "rb/digit_slice.hh"

namespace rbsim
{
namespace
{

RbNum
randomRawRb(Rng &rng)
{
    const std::uint64_t p = rng.next();
    const std::uint64_t m = rng.next() & ~p;
    return RbNum(p, m);
}

TEST(DigitSlice, ChainedSlicesMatchBitParallelAdder)
{
    Rng rng(31);
    for (int i = 0; i < 20000; ++i) {
        const RbNum x = randomRawRb(rng);
        const RbNum y = randomRawRb(rng);
        const RbRawSum a = rbAddRaw(x, y);
        const RbRawSum b = addBySlices(x, y);
        EXPECT_TRUE(a.digits == b.digits)
            << x.toString() << " + " << y.toString();
        EXPECT_EQ(a.carryOut, b.carryOut);
    }
}

TEST(DigitSlice, SumDigitMatchesBitParallelAdderOverEveryWindow)
{
    // For every digit position p, every assignment of both operands'
    // digits max(0, p-2)..p, all other digits zero: sum digit p (and,
    // at p = 63, the carry-out) of the slice chain must equal
    // rbAddRaw's, encoding for encoding. 9 + 81 + 62 * 729 cases.
    std::uint64_t cases = 0, mismatches = 0;
    std::string first;
    for (unsigned p = 0; p < 64; ++p) {
        const unsigned lo = p < 2 ? 0 : p - 2;
        unsigned assignments = 1;
        for (unsigned i = lo; i <= p; ++i)
            assignments *= 9;
        for (unsigned code = 0; code < assignments; ++code) {
            RbNum x, y;
            unsigned rest = code;
            for (unsigned i = lo; i <= p; ++i, rest /= 9) {
                x.setDigit(i, static_cast<Digit>(int(rest % 3) - 1));
                y.setDigit(i, static_cast<Digit>(int(rest / 3 % 3) - 1));
            }
            const RbRawSum arith = rbAddRaw(x, y);
            const RbRawSum gate = addBySlices(x, y);
            ++cases;
            if (arith.digits.digit(p) == gate.digits.digit(p) &&
                (p != 63 || arith.carryOut == gate.carryOut))
                continue;
            if (mismatches++ == 0) {
                first = "digit " + std::to_string(p) + ": " +
                        x.toString() + " + " + y.toString();
            }
        }
    }
    EXPECT_EQ(cases, 45288u);
    EXPECT_EQ(mismatches, 0u) << mismatches << " of " << cases
                              << " windows differ; first at " << first;
}

TEST(DigitSlice, OutputsAreLegalDigitEncodings)
{
    // Exhaustive over all inputs of one slice: 3 x 3 digit pairs, 2 h
    // values, 3 legal transfer encodings.
    const DigitWires digits[3] = {{false, false}, {false, true},
                                  {true, false}};
    const TransferWires transfers[3] = {{false, false}, {true, false},
                                        {false, true}};
    for (const auto &x : digits) {
        for (const auto &y : digits) {
            for (bool h : {false, true}) {
                for (const auto &f : transfers) {
                    const SliceOutputs out = evalDigitSlice(x, y, h, f);
                    // Never both wires of a pair.
                    EXPECT_FALSE(out.sum.pos && out.sum.neg);
                    EXPECT_FALSE(out.f.plus && out.f.minus);
                }
            }
        }
    }
}

TEST(DigitSlice, SliceValueIdentity)
{
    // For every slice input combination that can legally arise, check
    // x + y + f_prev == sum + 2 * f_out, i.e. the slice conserves value.
    // (f_prev legality: an incoming +1 transfer requires h_prev chosen by
    // the slice below; here we only check combinations the transfer rule
    // can produce: f_prev = +1 implies h_prev refers to THIS slice's
    // lower neighbor, so we validate conservation only where the rule's
    // no-collision precondition holds.)
    auto val = [](DigitWires d) { return (d.pos ? 1 : 0) - (d.neg ? 1 : 0); };
    auto tval = [](TransferWires t) {
        return (t.plus ? 1 : 0) - (t.minus ? 1 : 0);
    };
    const DigitWires digits[3] = {{false, false}, {false, true},
                                  {true, false}};
    const TransferWires transfers[3] = {{false, false}, {true, false},
                                        {false, true}};
    for (const auto &x : digits) {
        for (const auto &y : digits) {
            for (bool h : {false, true}) {
                for (const auto &f : transfers) {
                    // The rule guarantees: when h (both lower digits
                    // nonneg) the lower slice never sends -1 toward a
                    // -1 interim digit, etc. Skip impossible pairs:
                    // f_prev == +1 can only arrive when the lower slice
                    // had bn at ITS lower neighbor — unconstrained here —
                    // but collision-freedom only needs d chosen from h.
                    const SliceOutputs out = evalDigitSlice(x, y, h, f);
                    const int z = val(x) + val(y);
                    const int d = (z == 1 || z == -1)
                        ? (h ? -1 : 1) : 0;
                    // Skip combinations where d and f_prev collide; the
                    // adder's invariant makes them unreachable.
                    if (d == tval(f) && d != 0)
                        continue;
                    const int lhs = z + tval(f);
                    const int rhs = (out.sum.pos ? 1 : 0) -
                                    (out.sum.neg ? 1 : 0) +
                                    2 * tval(out.f);
                    EXPECT_EQ(lhs, rhs);
                }
            }
        }
    }
}

TEST(DigitSlice, HDependsOnlyOnOwnDigits)
{
    const DigitWires digits[3] = {{false, false}, {false, true},
                                  {true, false}};
    const TransferWires transfers[3] = {{false, false}, {true, false},
                                        {false, true}};
    for (const auto &x : digits) {
        for (const auto &y : digits) {
            bool first = true;
            bool h_ref = false;
            for (bool h : {false, true}) {
                for (const auto &f : transfers) {
                    const SliceOutputs out = evalDigitSlice(x, y, h, f);
                    if (first) {
                        h_ref = out.h;
                        first = false;
                    }
                    EXPECT_EQ(out.h, h_ref)
                        << "h must not depend on h_prev or f_prev";
                }
            }
        }
    }
}

TEST(DigitSlice, FIndependentOfFPrev)
{
    const DigitWires digits[3] = {{false, false}, {false, true},
                                  {true, false}};
    const TransferWires transfers[3] = {{false, false}, {true, false},
                                        {false, true}};
    for (const auto &x : digits) {
        for (const auto &y : digits) {
            for (bool h : {false, true}) {
                const SliceOutputs ref =
                    evalDigitSlice(x, y, h, transfers[0]);
                for (const auto &f : transfers) {
                    const SliceOutputs out = evalDigitSlice(x, y, h, f);
                    EXPECT_EQ(out.f.plus, ref.f.plus);
                    EXPECT_EQ(out.f.minus, ref.f.minus);
                }
            }
        }
    }
}

} // namespace
} // namespace rbsim
