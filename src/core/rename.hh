/**
 * @file
 * Register renaming: architectural-to-physical map (RAT), free list, and
 * walk-based misprediction recovery.
 *
 * Recovery is checkpoint-free: each ROB entry remembers the previous
 * mapping of its destination, and a squash walks the ROB from the tail
 * toward the branch undoing mappings in reverse order.
 */

#ifndef RBSIM_CORE_RENAME_HH
#define RBSIM_CORE_RENAME_HH

#include <cassert>
#include <vector>

#include "common/types.hh"
#include "isa/inst.hh"

namespace rbsim
{

/** The rename table and free list. */
class RenameTable
{
  public:
    /**
     * @param num_phys_regs total physical registers; the first 32 are the
     *        initial architectural mappings
     */
    explicit RenameTable(unsigned num_phys_regs);

    /** Current mapping of an architectural register. */
    PhysReg
    lookup(unsigned arch) const
    {
        assert(arch < numArchRegs);
        return rat[arch];
    }

    /** True if a destination can be allocated. */
    bool hasFree() const { return !freeList.empty(); }

    /** Free physical registers remaining. */
    std::size_t freeCount() const { return freeList.size(); }

    /**
     * Allocate a new mapping for an architectural destination.
     * @return {new physical register, previous mapping}
     */
    std::pair<PhysReg, PhysReg> allocate(unsigned arch);

    /** Undo one allocation during a squash walk (reverse order!). */
    void undo(unsigned arch, PhysReg allocated, PhysReg previous);

    /** Release the previous mapping when its overwriter retires. */
    void release(PhysReg previous);

  private:
    std::vector<PhysReg> rat;
    std::vector<PhysReg> freeList;
};

} // namespace rbsim

#endif // RBSIM_CORE_RENAME_HH
