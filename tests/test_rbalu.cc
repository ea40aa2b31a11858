/**
 * @file
 * Tests for carry-free redundant binary arithmetic (paper §3.3, §3.5,
 * §3.6): value correctness against 64-bit two's complement, the bounded
 * carry propagation property, the paper's worked increment sequence, and
 * the overflow rules.
 *
 * The RbAluProof tests enumerate every pair of N-digit operands placed
 * into the 64-digit planes three ways: at the top (digits 64-N..63), at
 * the bottom (0..N-1), and split half top, half bottom. They keep the
 * normalized operands (unwrapped value in [-2^63, 2^63), what the
 * machine maintains) and check rbAdd, rbSub, rbScaledAdd,
 * rbShiftLeftDigits, rbToTcRipple and extractLongword against __int128
 * arithmetic. The production functions run unchanged, and the placed
 * operands cover every 64-digit input because:
 *
 *  - raw sum digit i is the same bitwise function of digits i, i-1 and
 *    i-2 of both operands at every position, since rbAddRaw uses only
 *    bitwise operations and `<< 1`; tests/test_rb_digit_slice.cc checks
 *    every such window against the Fig. 2 slice chain, whose slices
 *    conserve value;
 *  - normalization changes only the MSD (digit 63, or 31 for a
 *    longword), and reads only the carry-out, the MSD and the sign of
 *    the top nonzero digit below the MSD. An add of two normalized
 *    operands can hand normalizeQuad 18 of those triples, and the sweep
 *    asserts it reached all 18;
 *  - each predicate reads only the top nonzero digit (sign), digit 0
 *    (LSB) or the lowest nonzero digit (CTTZ); the zero test reads
 *    whether any digit is nonzero.
 *
 * The top placement drives the carry-out and the MSD through every
 * case, the bottom one the digit-0 end of the adder, and the split one
 * puts a run of zero digits between the MSD and the digits below it.
 * The randomized tests sample full-width inputs, which no placement
 * has.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "rb/convert.hh"
#include "rb/rbalu.hh"

namespace rbsim
{
namespace
{

/** Random RB number that is normalized (built from a TC value) or the
 * result of normalized adds, depending on depth. */
RbNum
randomRb(Rng &rng, int depth = 0)
{
    RbNum x = RbNum::fromTc(rng.next());
    for (int i = 0; i < depth; ++i)
        x = rbAdd(x, RbNum::fromTc(rng.next())).sum;
    return x;
}

/** The value plus - minus as a wide integer (not wrapped to 64 bits). */
__int128
unwrapped(const RbNum &x)
{
    return static_cast<__int128>(x.plus()) -
           static_cast<__int128>(x.minus());
}

/** A wide value wrapped to 64-bit two's complement. */
__int128
wrapped(__int128 v)
{
    return static_cast<SWord>(static_cast<Word>(v));
}

/** Outside [-2^63, 2^63): a two's complement overflow. */
bool
outOfRange(__int128 v)
{
    return v < -(__int128{1} << 63) || v >= (__int128{1} << 63);
}

TEST(RbAlu, AddMatchesTwosComplementRandom)
{
    Rng rng(11);
    for (int i = 0; i < 50000; ++i) {
        const Word a = rng.next();
        const Word b = rng.next();
        const RbAddResult r = rbAdd(RbNum::fromTc(a), RbNum::fromTc(b));
        EXPECT_EQ(r.sum.toTc(), a + b) << a << " + " << b;
    }
}

TEST(RbAlu, AddChainsStayCorrect)
{
    // Results of adds feed further adds without any conversion, as in the
    // forwarding of intermediate results the paper relies on.
    Rng rng(12);
    for (int trial = 0; trial < 2000; ++trial) {
        Word expect = rng.next();
        RbNum acc = RbNum::fromTc(expect);
        for (int i = 0; i < 20; ++i) {
            const Word v = rng.next();
            if (rng.chance(1, 2)) {
                expect += v;
                acc = rbAdd(acc, RbNum::fromTc(v)).sum;
            } else {
                expect -= v;
                acc = rbSub(acc, RbNum::fromTc(v)).sum;
            }
            EXPECT_EQ(acc.toTc(), expect);
            EXPECT_EQ(acc.signNegative(),
                      static_cast<SWord>(expect) < 0);
        }
    }
}

TEST(RbAlu, PaperIncrementSequence)
{
    // Paper section 3.5: repeatedly incrementing 1 yields the digit
    // patterns <0001>, <0010>, <010-1>, <1-100>, <1-11-1>, ...
    const RbNum one = RbNum::fromTc(1);
    RbNum x = one;
    EXPECT_EQ(x.toString(4), "<0,0,0,1>");
    x = rbAdd(x, one).sum;
    EXPECT_EQ(x.toString(4), "<0,0,1,0>");
    x = rbAdd(x, one).sum;
    EXPECT_EQ(x.toString(4), "<0,1,0,-1>");
    x = rbAdd(x, one).sum;
    EXPECT_EQ(x.toString(4), "<1,-1,0,0>");
    x = rbAdd(x, one).sum;
    EXPECT_EQ(x.toString(4), "<1,-1,1,-1>");
    EXPECT_EQ(x.toTc(), 5u);
}

TEST(RbAlu, CarryPropagationIsBounded)
{
    // The defining property (paper section 3.3): sum digit i depends only
    // on input digits i, i-1, i-2. Verify by perturbing digits >= i+1 and
    // checking digits <= i of the raw sum never change.
    Rng rng(13);
    for (int trial = 0; trial < 3000; ++trial) {
        const RbNum x = randomRb(rng, 1);
        const RbNum y = randomRb(rng, 1);
        const RbRawSum base = rbAddRaw(x, y);

        const unsigned i = static_cast<unsigned>(rng.below(60));
        // Perturb x above digit i by clearing all higher digits.
        const std::uint64_t keep = (std::uint64_t{1} << (i + 1)) - 1;
        const RbNum x2(x.plus() & keep, x.minus() & keep);
        const RbRawSum mod = rbAddRaw(x2, y);

        const std::uint64_t low_mask = keep;
        EXPECT_EQ(base.digits.plus() & low_mask,
                  mod.digits.plus() & low_mask);
        EXPECT_EQ(base.digits.minus() & low_mask,
                  mod.digits.minus() & low_mask);
    }
}

TEST(RbAlu, RawSumValueIdentityWithCarryOut)
{
    // carry * 2^64 + digits == x + y as wide integers.
    Rng rng(14);
    for (int i = 0; i < 20000; ++i) {
        const RbNum x = randomRb(rng, rng.below(3));
        const RbNum y = randomRb(rng, rng.below(3));
        const RbRawSum raw = rbAddRaw(x, y);
        const __int128 lhs = unwrapped(x) + unwrapped(y);
        const __int128 rhs =
            (static_cast<__int128>(raw.carryOut) << 64) +
            unwrapped(raw.digits);
        EXPECT_TRUE(lhs == rhs);
    }
}

TEST(RbAlu, NegationIsFreeAndExact)
{
    Rng rng(15);
    for (int i = 0; i < 20000; ++i) {
        const RbNum x = randomRb(rng, rng.below(4));
        const RbNum n = rbNegate(x);
        EXPECT_EQ(n.toTc(), static_cast<Word>(0) - x.toTc());
        EXPECT_EQ(n.plus(), x.minus());
        EXPECT_EQ(n.minus(), x.plus());
    }
}

TEST(RbAlu, SubMatchesTwosComplement)
{
    Rng rng(16);
    for (int i = 0; i < 20000; ++i) {
        const Word a = rng.next();
        const Word b = rng.next();
        EXPECT_EQ(rbSub(RbNum::fromTc(a), RbNum::fromTc(b)).sum.toTc(),
                  a - b);
    }
}

TEST(RbAlu, SignScanCorrectAfterNormalizedAdds)
{
    Rng rng(17);
    for (int i = 0; i < 20000; ++i) {
        const RbNum x = randomRb(rng, rng.below(5));
        EXPECT_EQ(x.signNegative(), static_cast<SWord>(x.toTc()) < 0)
            << x.toString();
    }
}

TEST(RbAlu, TcOverflowFlagMatchesWideArithmetic)
{
    Rng rng(18);
    int overflows = 0;
    for (int i = 0; i < 50000; ++i) {
        // Bias operands toward large magnitudes to hit overflow often.
        const Word a = rng.next() | (rng.chance(1, 2)
            ? 0xc000000000000000ull : 0);
        const Word b = rng.chance(1, 2) ? (rng.next() | a) : rng.next();
        const RbAddResult r = rbAdd(RbNum::fromTc(a), RbNum::fromTc(b));
        const __int128 wide = static_cast<__int128>(
            static_cast<SWord>(a)) + static_cast<SWord>(b);
        EXPECT_EQ(r.tcOverflow, outOfRange(wide)) << a << " " << b;
        overflows += r.tcOverflow;
    }
    EXPECT_GT(overflows, 1000); // the bias actually produced overflow
}

TEST(RbAlu, BogusOverflowOccursAndIsCorrected)
{
    // Drive a long chain of adds; bogus overflow (carry-out cancelling an
    // opposite-sign MSD) must occur and never corrupt the value.
    Rng rng(19);
    int bogus = 0;
    RbNum acc = RbNum::fromTc(0x4000000000000000ull);
    Word expect = 0x4000000000000000ull;
    for (int i = 0; i < 200000; ++i) {
        const Word v = rng.next();
        const RbAddResult r = rbAdd(acc, RbNum::fromTc(v));
        acc = r.sum;
        expect += v;
        ASSERT_EQ(acc.toTc(), expect);
        bogus += r.bogusCorrected;
    }
    EXPECT_GT(bogus, 0);
}

TEST(RbAlu, ShiftLeftDigitsPaperExample)
{
    // <-1,1,0,1> (-3) shifted left one digit becomes -6; the paper shows
    // the MSD re-signing making the 4-digit result <-1,0,1,0>. In our
    // 64-digit numbers -3 << 1 is simply -6.
    const RbNum minus3(0b0101, 0b1000); // -8+4+1 = -3
    EXPECT_EQ(static_cast<SWord>(minus3.toTc()), -3);
    const RbNum shifted = rbShiftLeftDigits(minus3, 1);
    EXPECT_EQ(static_cast<SWord>(shifted.toTc()), -6);
}

TEST(RbAlu, ShiftLeftDigitsMatchesTcShift)
{
    Rng rng(20);
    for (int i = 0; i < 30000; ++i) {
        const RbNum x = randomRb(rng, rng.below(3));
        const unsigned k = static_cast<unsigned>(rng.below(64));
        const RbNum s = rbShiftLeftDigits(x, k);
        EXPECT_EQ(s.toTc(), x.toTc() << k);
        // Normalization keeps the sign scan valid.
        EXPECT_EQ(s.signNegative(),
                  static_cast<SWord>(s.toTc()) < 0);
    }
}

TEST(RbAlu, ScaledAddMatchesTc)
{
    Rng rng(21);
    for (int i = 0; i < 20000; ++i) {
        const Word a = rng.next();
        const Word b = rng.next();
        EXPECT_EQ(rbScaledAdd(RbNum::fromTc(a), 2,
                              RbNum::fromTc(b)).sum.toTc(),
                  (a << 2) + b);
        EXPECT_EQ(rbScaledAdd(RbNum::fromTc(a), 3,
                              RbNum::fromTc(b)).sum.toTc(),
                  (a << 3) + b);
    }
}

TEST(RbAlu, CompareZeroAgreesWithSignedCompare)
{
    Rng rng(22);
    for (int i = 0; i < 20000; ++i) {
        const RbNum x = randomRb(rng, rng.below(4));
        const SWord v = static_cast<SWord>(x.toTc());
        const int expect = v < 0 ? -1 : (v == 0 ? 0 : 1);
        EXPECT_EQ(rbCompareZero(x), expect);
    }
}

TEST(RbOverflow, ExtractLongwordMatchesSext32)
{
    Rng rng(23);
    for (int i = 0; i < 30000; ++i) {
        const RbNum x = randomRb(rng, rng.below(4));
        const RbNum lw = extractLongword(x);
        const Word expect = static_cast<Word>(
            static_cast<SWord>(static_cast<std::int32_t>(x.toTc())));
        EXPECT_EQ(lw.toTc(), expect) << x.toString();
        // Upper digits are clear so the RB number *is* the sign-extended
        // longword.
        EXPECT_EQ((lw.plus() | lw.minus()) >> 32, 0u);
        EXPECT_EQ(lw.signNegative(), static_cast<SWord>(expect) < 0);
    }
}

TEST(RbOverflow, NormalizeQuadIdempotentOnNormalValues)
{
    Rng rng(24);
    for (int i = 0; i < 10000; ++i) {
        const RbNum x = randomRb(rng, rng.below(4));
        const NormalizeResult n = normalizeQuad(x, 0);
        EXPECT_EQ(n.value.toTc(), x.toTc());
        EXPECT_FALSE(n.tcOverflow);
        EXPECT_FALSE(n.bogusCorrected);
    }
}


// ------------------------------------------------ exhaustive proof sweeps

/** Positions lo .. lo+n-1. */
std::vector<unsigned>
digitRun(unsigned lo, unsigned n)
{
    std::vector<unsigned> out;
    for (unsigned i = 0; i < n; ++i)
        out.push_back(lo + i);
    return out;
}

/** An n-digit operand split half top, half bottom. */
std::vector<unsigned>
splitRun(unsigned n)
{
    std::vector<unsigned> out = digitRun(0, n / 2);
    for (unsigned p : digitRun(64 - n / 2, n / 2))
        out.push_back(p);
    return out;
}

/**
 * Every assignment of {-1, 0, 1} to the digits at `positions` (all
 * others zero) whose unwrapped value is in [-2^63, 2^63).
 */
std::vector<RbNum>
normalizedOperandsAt(const std::vector<unsigned> &positions)
{
    std::uint64_t assignments = 1;
    for (std::size_t i = 0; i < positions.size(); ++i)
        assignments *= 3;
    std::vector<RbNum> out;
    for (std::uint64_t code = 0; code < assignments; ++code) {
        RbNum x;
        std::uint64_t rest = code;
        for (unsigned p : positions) {
            x.setDigit(p, static_cast<Digit>(int(rest % 3) - 1));
            rest /= 3;
        }
        if (!outOfRange(unwrapped(x)))
            out.push_back(x);
    }
    return out;
}

/**
 * The first property a result `r` breaks, or nullptr, when the exact
 * result is `exact`: its unwrapped value must be `exact` wrapped to 64
 * bits (so its digits are normalized), its digits legal, and the §3.6
 * sign, zero, LSB and CTTZ predicates must read that value.
 */
const char *
resultFault(const RbNum &r, __int128 exact)
{
    const __int128 v = wrapped(exact);
    const Word w = static_cast<Word>(v);
    if ((r.plus() & r.minus()) != 0)
        return "illegal digit";
    if (unwrapped(r) != v)
        return "value";
    if (r.signNegative() != (v < 0))
        return "sign";
    if (r.isZero() != (v == 0))
        return "zero";
    if (r.lsbSet() != ((w & 1) != 0))
        return "LSB";
    if (rbCttz(r) != (w == 0 ? 64u : unsigned(std::countr_zero(w))))
        return "CTTZ";
    return nullptr;
}

/**
 * What normalizeQuad reads of a raw sum — the carry-out, digit 63 and
 * the sign of the top nonzero digit below it — as an index in [0, 27).
 */
unsigned
normalizeClass(const RbRawSum &raw)
{
    const std::uint64_t below = ~(std::uint64_t{1} << 63);
    const RbNum rest(raw.digits.plus() & below, raw.digits.minus() & below);
    const int rest_sign = rest.isZero() ? 0 : rest.signNegative() ? -1 : 1;
    return static_cast<unsigned>((raw.carryOut + 1) * 9 +
                                 (int(raw.digits.digit(63)) + 1) * 3 +
                                 rest_sign + 1);
}

/** Failure count and the first failure of one sweep. */
struct SweepFailures
{
    std::uint64_t count = 0;
    std::string first;

    void
    note(const char *fault, const std::string &what)
    {
        if (count++ == 0)
            first = what + ": " + fault;
    }
};

TEST(RbAluProof, EveryNormalizedPairOfPlacedOperands)
{
    std::array<std::uint64_t, 27> classes{};
    std::uint64_t pairs = 0, bogus = 0, overflows = 0;
    SweepFailures failures;
    // The bottom placement only drives the digit-0 end of the adder, so
    // it alone gives up a digit to keep the sweep near 6 s.
    for (const std::vector<unsigned> &at :
         {digitRun(56, 8), digitRun(0, 7), splitRun(8)}) {
        const std::vector<RbNum> ops = normalizedOperandsAt(at);
        for (const RbNum &x : ops) {
            const __int128 a = unwrapped(x);
            for (const RbNum &y : ops) {
                const __int128 b = unwrapped(y);
                ++pairs;
                ++classes[normalizeClass(rbAddRaw(x, y))];
                const char *op = nullptr;
                const char *fault = nullptr;
                auto check = [&](const char *name, const RbAddResult &r,
                                 __int128 exact) {
                    bogus += r.bogusCorrected;
                    overflows += r.tcOverflow;
                    if (fault)
                        return;
                    op = name;
                    fault = r.tcOverflow != outOfRange(exact)
                        ? "tcOverflow" : resultFault(r.sum, exact);
                };
                check("add", rbAdd(x, y), a + b);
                check("sub", rbSub(x, y), a - b);
                check("s4add", rbScaledAdd(x, 2, y), wrapped(a * 4) + b);
                check("s8add", rbScaledAdd(x, 3, y), wrapped(a * 8) + b);
                if (fault) {
                    failures.note(fault, std::string(op) + " " +
                                             x.toString() + ", " +
                                             y.toString());
                }
            }
        }
    }
    // 4374^2 pairs each at the top and split (2187 operands with a zero
    // MSD, 1093 with a +1 MSD over a negative rest and 1094 with a -1
    // MSD over a nonnegative one), and 3^14 at the bottom.
    EXPECT_EQ(pairs, 2 * 4374u * 4374u + 4'782'969u);
    EXPECT_EQ(failures.count, 0u) << failures.count << " pairs fail; first "
                                  << failures.first;
    // A sum of two normalized operands lies in [-2^64, 2^64 - 2], which
    // rules out 9 of the 27 triples (e.g. carry-out +1 over a +1 MSD).
    unsigned reached = 0;
    for (std::uint64_t n : classes)
        reached += n != 0;
    EXPECT_EQ(reached, 18u);
    EXPECT_GT(bogus, 0u);
    EXPECT_GT(overflows, 0u);
}

TEST(RbAluProof, ShiftsAndConversionOfEveryPlacedOperand)
{
    std::uint64_t operands = 0;
    SweepFailures failures;
    for (const std::vector<unsigned> &at :
         {digitRun(56, 8), digitRun(0, 8), splitRun(8)}) {
        for (const RbNum &x : normalizedOperandsAt(at)) {
            const __int128 a = unwrapped(x);
            ++operands;
            if (rbToTcRipple(x) != static_cast<Word>(a))
                failures.note("ripple conversion", x.toString());
            // k = 0 returns x itself, so this also checks the operand's
            // own predicates over every encoding of its value.
            for (unsigned k = 0; k < 64; ++k) {
                if (const char *fault =
                        resultFault(rbShiftLeftDigits(x, k),
                                    a * (__int128{1} << k))) {
                    failures.note(fault, x.toString() + " << " +
                                             std::to_string(k));
                }
            }
        }
    }
    EXPECT_EQ(operands, 6561u + 2 * 4374u);
    EXPECT_EQ(failures.count, 0u) << failures.count << " fail; first "
                                  << failures.first;
}

TEST(RbAluProof, ExtractLongwordOfEveryPlacedOperand)
{
    // Digits 24..31 drive the longword MSD (digit 31), 0..7 its low end,
    // and 28..35 straddle the digits extraction drops.
    std::uint64_t operands = 0;
    SweepFailures failures;
    for (unsigned lo : {24u, 0u, 28u}) {
        for (const RbNum &x : normalizedOperandsAt(digitRun(lo, 8))) {
            ++operands;
            const RbNum lw = extractLongword(x);
            const __int128 sext = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(unwrapped(x)));
            if (const char *fault = (lw.plus() | lw.minus()) >> 32
                                        ? "upper digits"
                                        : resultFault(lw, sext))
                failures.note(fault, x.toString());
        }
    }
    EXPECT_EQ(operands, 3 * 6561u);
    EXPECT_EQ(failures.count, 0u) << failures.count << " fail; first "
                                  << failures.first;
}

} // namespace
} // namespace rbsim
