/**
 * @file
 * Functional execution of one renamed instruction inside the timing core.
 *
 * On the RB machines, RB-capable instructions execute through the
 * redundant binary datapath (digit-plane operands read from the physical
 * registers, carry-free ALU, section 3.5 normalization); everything else
 * — and everything on the conventional machines — executes in two's
 * complement. Memory instructions produce their (aligned) effective
 * address; the core performs the access.
 */

#ifndef RBSIM_CORE_EXEC_HH
#define RBSIM_CORE_EXEC_HH

#include "core/machine_config.hh"
#include "core/regfile.hh"
#include "core/rob.hh"
#include "isa/program.hh"

namespace rbsim
{

/** Result of functionally executing an instruction. */
struct ExecOut
{
    Word tc = 0;            //!< destination value (TC view)
    RbNum rb;               //!< destination value (RB planes)
    bool hasRb = false;     //!< rb holds genuine digit planes
    bool taken = false;     //!< control: taken?
    std::uint64_t nextPc = 0; //!< control: actual next instruction index
    Addr effAddr = 0;       //!< memory: aligned effective address
    Word storeData = 0;     //!< memory: store data (size-masked)
    bool usedRbPath = false; //!< executed on the RB datapath
    bool bogusCorrected = false; //!< section 3.5 correction fired
};

/**
 * True when executeInst evaluates `op` on the redundant binary datapath:
 * an RB-input instruction on an RB machine.
 */
bool takesRbDatapath(const MachineConfig &cfg, Opcode op);

/**
 * Execute entry's instruction.
 * @param cfg machine (selects the datapath)
 * @param prog program (for control-flow targets)
 * @param entry the renamed instruction (physA/B/C already resolved)
 * @param regs physical register values
 */
ExecOut executeInst(const MachineConfig &cfg, const Program &prog,
                    const RobEntry &entry, const PhysRegFile &regs);

} // namespace rbsim

#endif // RBSIM_CORE_EXEC_HH
