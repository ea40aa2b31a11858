#include "core/exec.hh"

#include "common/bitutil.hh"
#include "isa/eval.hh"
#include "isa/opclass.hh"

namespace rbsim
{

bool
takesRbDatapath(const MachineConfig &cfg, Opcode op)
{
    return (cfg.kind == MachineKind::RbFull ||
            cfg.kind == MachineKind::RbLimited) &&
           inputFormat(op) == Format::RB;
}

ExecOut
executeInst(const MachineConfig &cfg, const Program &prog,
            const RobEntry &entry, const PhysRegFile &regs)
{
    const Inst &inst = entry.inst;
    ExecOut out;

    auto readTc = [&regs](unsigned arch, PhysReg phys) -> Word {
        return arch == zeroReg ? 0 : regs.readTc(phys);
    };

    Operands ops;
    ops.a = readTc(inst.ra, entry.physA);
    ops.b = inst.useLit ? inst.lit : readTc(inst.rb, entry.physB);
    ops.c = readTc(inst.rc, entry.physC);

    const Addr return_addr = prog.byteAddrOf(entry.pcIndex + 1);

    bool have_value = false;
    if (takesRbDatapath(cfg, inst.op)) {
        auto readRb = [&regs](unsigned arch, PhysReg phys) -> RbNum {
            return arch == zeroReg ? RbNum() : regs.readRb(phys);
        };
        RbOperands rops;
        rops.a = readRb(inst.ra, entry.physA);
        rops.b = inst.useLit ? RbNum::fromTc(inst.lit)
                             : readRb(inst.rb, entry.physB);
        rops.c = readRb(inst.rc, entry.physC);
        const RbEvalResult rres = evalOpRb(inst, rops);
        if (rres.usedRbPath) {
            out.rb = rres.value;
            out.tc = rres.value.toTc();
            out.hasRb = true;
            out.taken = rres.taken;
            out.usedRbPath = true;
            out.bogusCorrected = rres.bogusCorrected;
            have_value = true;
        }
    }
    if (!have_value) {
        const EvalResult res = evalOp(inst, ops, return_addr);
        out.tc = res.value;
        out.taken = res.taken;
    }

    if (isLoad(inst.op) || isStore(inst.op)) {
        const unsigned size = memAccessSize(inst.op);
        out.effAddr = out.tc & ~Addr{size - 1};
        if (isStore(inst.op)) {
            out.storeData = size == 8 ? ops.a : (ops.a & 0xffffffffull);
        }
        // Memory data is two's complement; the address RbNum (if any) was
        // only for SAM indexing, so the destination carries no RB planes.
        out.hasRb = false;
    }

    if (isControl(inst.op)) {
        if (isCondBranch(inst.op)) {
            out.nextPc = out.taken
                ? static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(entry.pcIndex) + 1 +
                      inst.disp)
                : entry.pcIndex + 1;
        } else if (inst.op == Opcode::BR || inst.op == Opcode::BSR) {
            out.taken = true;
            out.nextPc = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(entry.pcIndex) + 1 + inst.disp);
            out.tc = return_addr;
            out.hasRb = false;
        } else { // JMP
            out.taken = true;
            const Word target = ops.b;
            // A wrong-path JMP may hold a non-code target; park the fetch
            // off the end of the code so it stalls until an older branch
            // squashes this path.
            out.nextPc = prog.isCodeAddr(target) ? prog.indexOf(target)
                                                 : prog.code.size();
            out.tc = return_addr;
            out.hasRb = false;
        }
    }

    // Loads: the core overwrites out.tc with the memory data after the
    // access; conditional-move passthrough, arithmetic etc. are final.
    return out;
}

} // namespace rbsim
