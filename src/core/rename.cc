#include "core/rename.hh"

namespace rbsim
{

RenameTable::RenameTable(unsigned num_phys_regs)
{
    assert(num_phys_regs > numArchRegs);
    rat.resize(numArchRegs);
    for (unsigned i = 0; i < numArchRegs; ++i)
        rat[i] = static_cast<PhysReg>(i);
    freeList.reserve(num_phys_regs - numArchRegs);
    // Pop from the back; keep low registers first for readable traces.
    for (unsigned p = num_phys_regs; p-- > numArchRegs;)
        freeList.push_back(static_cast<PhysReg>(p));
}

std::pair<PhysReg, PhysReg>
RenameTable::allocate(unsigned arch)
{
    assert(arch < numArchRegs && arch != zeroReg);
    assert(hasFree());
    const PhysReg fresh = freeList.back();
    freeList.pop_back();
    const PhysReg previous = rat[arch];
    rat[arch] = fresh;
    return {fresh, previous};
}

void
RenameTable::undo(unsigned arch, PhysReg allocated, PhysReg previous)
{
    assert(arch < numArchRegs && arch != zeroReg);
    assert(rat[arch] == allocated && "squash walk out of order");
    rat[arch] = previous;
    freeList.push_back(allocated);
}

void
RenameTable::release(PhysReg previous)
{
    assert(previous != invalidPhysReg);
    freeList.push_back(previous);
}

} // namespace rbsim
