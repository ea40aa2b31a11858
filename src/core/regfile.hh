/**
 * @file
 * Physical register value storage, in both representations.
 *
 * Every physical register holds a two's complement value; on the RB
 * machines, registers written by dual-format producers additionally hold
 * the redundant binary representation that flowed through the bypass
 * network (so consumers of RB operands really consume RB digit planes,
 * and the conversion is observable). On the RB-full machine this models
 * the RB register file copy; on RB-limited it models in-flight bypass
 * values (architecturally both views always agree — co-sim enforces it).
 */

#ifndef RBSIM_CORE_REGFILE_HH
#define RBSIM_CORE_REGFILE_HH

#include <cassert>
#include <vector>

#include "common/types.hh"
#include "rb/rbnum.hh"

namespace rbsim
{

/** The physical register file(s). */
class PhysRegFile
{
  public:
    explicit PhysRegFile(unsigned num_regs)
        : tcVals(num_regs, 0), rbVals(num_regs), hasRbVal(num_regs, 0)
    {}

    /** Write a two's complement result. */
    void
    writeTc(PhysReg r, Word v)
    {
        assert(r < tcVals.size());
        tcVals[r] = v;
        hasRbVal[r] = 0;
    }

    /** Write a redundant binary result (TC view derived). */
    void
    writeRb(PhysReg r, const RbNum &v)
    {
        assert(r < tcVals.size());
        rbVals[r] = v;
        tcVals[r] = v.toTc();
        hasRbVal[r] = 1;
    }

    /** Two's complement view. */
    Word
    readTc(PhysReg r) const
    {
        assert(r < tcVals.size());
        return tcVals[r];
    }

    /**
     * Redundant binary view: the stored digit planes when the value was
     * produced in RB, else the hardwired (free) TC -> RB conversion.
     */
    RbNum
    readRb(PhysReg r) const
    {
        assert(r < tcVals.size());
        return hasRbVal[r] ? rbVals[r] : RbNum::fromTc(tcVals[r]);
    }

    /** True when the register holds genuine RB digit planes. */
    bool
    holdsRb(PhysReg r) const
    {
        assert(r < tcVals.size());
        return hasRbVal[r] != 0;
    }

  private:
    std::vector<Word> tcVals;
    std::vector<RbNum> rbVals;
    std::vector<std::uint8_t> hasRbVal;
};

} // namespace rbsim

#endif // RBSIM_CORE_REGFILE_HH
