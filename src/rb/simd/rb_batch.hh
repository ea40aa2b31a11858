/**
 * @file
 * RbBatch: a fixed-capacity structure-of-arrays operand batch for the
 * batched RB kernels (kernels.hh).
 *
 * The container holds the two operand plane pairs, a per-lane digit
 * shift, and the result planes + flags as separate contiguous arrays —
 * the layout scaledAddBatch consumes directly. Capacity is fixed
 * at construction and `clear()` keeps the storage, so a batch owned by
 * a hot-path component obeys the zero-allocation invariant
 * (docs/PERFORMANCE.md §2; tests/test_allocfree.cc extends its
 * operator-new audit over the core's batch).
 *
 * One kernel call — scaledAddBatch — evaluates the whole batch: a lane
 * with shift 0 is exactly rbAdd, one with a nonzero shift exactly
 * rbScaledAdd, and subtraction is encoded at push time by swapping the
 * subtrahend's planes (rbSub == rbAdd of the negation, and negation is
 * a plane swap). This is what lets the core funnel every batchable RB
 * ALU op selected in a cycle through a single kernel call.
 */

#ifndef RBSIM_RB_SIMD_RB_BATCH_HH
#define RBSIM_RB_SIMD_RB_BATCH_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "rb/rbnum.hh"
#include "rb/simd/kernels.hh"

namespace rbsim::simd
{

class RbBatch
{
  public:
    explicit RbBatch(std::size_t capacity)
        : aPlus_(capacity), aMinus_(capacity), bPlus_(capacity),
          bMinus_(capacity), shift_(capacity), sumPlus_(capacity),
          sumMinus_(capacity), bogus_(capacity), ovf_(capacity)
    {
    }

    std::size_t size() const { return n_; }
    std::size_t capacity() const { return aPlus_.size(); }
    bool empty() const { return n_ == 0; }
    bool full() const { return n_ == capacity(); }

    /** Drop all lanes; keeps storage (never allocates/frees). */
    void clear() { n_ = 0; }

    /** Lane for sum = a + b. Returns the lane index. */
    std::size_t
    pushAdd(const RbNum &a, const RbNum &b)
    {
        return pushScaledAdd(a, 0, b);
    }

    /** Lane for sum = a - b (plane-swapped b; no extra work). */
    std::size_t
    pushSub(const RbNum &a, const RbNum &b)
    {
        return pushScaledAdd(a, 0, RbNum(b.minus(), b.plus()));
    }

    /** Lane for sum = (a << scale_log2 digits) + b. */
    std::size_t
    pushScaledAdd(const RbNum &a, unsigned scale_log2, const RbNum &b)
    {
        assert(n_ < capacity() && "RbBatch overflow");
        assert(scale_log2 < 64);
        const std::size_t i = n_++;
        aPlus_[i] = a.plus();
        aMinus_[i] = a.minus();
        bPlus_[i] = b.plus();
        bMinus_[i] = b.minus();
        shift_[i] = static_cast<std::uint8_t>(scale_log2);
        return i;
    }

    /** Evaluate every lane with one kernel call. */
    void
    run()
    {
        scaledAddBatch(aPlus_.data(), aMinus_.data(), shift_.data(),
                       bPlus_.data(), bMinus_.data(), sumPlus_.data(),
                       sumMinus_.data(), bogus_.data(), ovf_.data(), n_);
    }

    /** Results, valid after run(). */
    RbNum
    sum(std::size_t i) const
    {
        assert(i < n_);
        return RbNum(sumPlus_[i], sumMinus_[i]);
    }

    bool bogusCorrected(std::size_t i) const { return bogus_[i] != 0; }
    bool tcOverflow(std::size_t i) const { return ovf_[i] != 0; }

  private:
    std::vector<std::uint64_t> aPlus_, aMinus_, bPlus_, bMinus_;
    std::vector<std::uint8_t> shift_;
    std::vector<std::uint64_t> sumPlus_, sumMinus_;
    std::vector<std::uint8_t> bogus_, ovf_;
    std::size_t n_ = 0;
};

} // namespace rbsim::simd

#endif // RBSIM_RB_SIMD_RB_BATCH_HH
