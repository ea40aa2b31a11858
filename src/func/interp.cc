#include "func/interp.hh"

#include "common/bitutil.hh"
#include "isa/opclass.hh"

namespace rbsim
{

namespace
{

/**
 * Event sink that reconstructs the co-simulation StepRecord from the
 * predecoded loop's hooks — bit-identical to what stepReference()
 * materializes (tests/test_predecode.cc proves it over the corpus).
 * Writes to the scratch slot are architectural writes to r31, which the
 * reference never records.
 */
struct RecordSink
{
    StepRecord &rec;
    std::uint16_t scratch;

    void preStep(std::uint64_t) {}

    void
    regWrite(std::uint16_t slot, Word v)
    {
        if (slot == scratch)
            return;
        rec.wroteReg = true;
        rec.archReg = slot;
        rec.regValue = v;
    }

    void
    load(Addr ea, Word)
    {
        rec.readMem = true;
        rec.memAddr = ea;
    }

    void
    store(Addr ea, Word v)
    {
        rec.wroteMem = true;
        rec.memAddr = ea;
        rec.memValue = v;
    }

    void condBranch(std::uint64_t, bool t) { rec.taken = t; }
    void br() { rec.taken = true; }
    void bsr(Addr) { rec.taken = true; }
    void jmpRet() { rec.taken = true; }
    void jmpCall(std::uint64_t, std::uint64_t, Addr) { rec.taken = true; }
    void halt() { rec.halted = true; }
};

} // namespace

Interp::Interp(const Program &prog) : Interp(prog, prog.hash()) {}

Interp::Interp(const Program &prog, std::uint64_t prog_hash,
               const PageMap *pages)
    : program(&prog), dec(decodeProgram(prog, prog_hash)),
      pcIndex(prog.entry)
{
    // Register file: arch regs zeroed, literal pool filled, scratch slot.
    xregs.resize(dec->slotCount());
    for (std::size_t i = 0; i < dec->pool.size(); ++i)
        xregs[numArchRegs + i] = dec->pool[i];
    memory.restorePages(pages ? *pages : prog.image);
}

StepRecord
Interp::step()
{
    assert(!isHalted);
    assert(pcIndex < program->code.size() && "PC ran off the code image");

    StepRecord rec;
    rec.pcIndex = pcIndex;
    rec.inst = program->code[pcIndex];
    RecordSink sink{rec, dec->scratch};
    runSink(1, sink);
    // Every handler leaves the post-step pc exactly where the reference
    // puts rec.nextPc (HALT leaves it on itself; a taken branch leaves
    // the raw, possibly off-image target).
    rec.nextPc = pcIndex;
    return rec;
}

StepRecord
Interp::stepReference()
{
    assert(!isHalted);
    assert(pcIndex < program->code.size() && "PC ran off the code image");

    const Inst &inst = program->code[pcIndex];
    StepRecord rec;
    rec.pcIndex = pcIndex;
    rec.inst = inst;
    rec.nextPc = pcIndex + 1;

    Operands ops;
    ops.a = reg(inst.ra);
    ops.b = inst.useLit ? inst.lit : reg(inst.rb);
    ops.c = reg(inst.rc);

    const Addr return_addr = program->byteAddrOf(pcIndex + 1);
    const EvalResult ev = evalOp(inst, ops, return_addr);

    auto writeReg = [&](unsigned r, Word v) {
        if (r == zeroReg)
            return;
        xregs[r] = v;
        rec.wroteReg = true;
        rec.archReg = r;
        rec.regValue = v;
    };

    if (isLoad(inst.op)) {
        const unsigned size = memAccessSize(inst.op);
        const Addr ea = ev.value & ~Addr{size - 1};
        Word v = memory.read(ea, size);
        if (inst.op == Opcode::LDL)
            v = static_cast<Word>(sext(v, 32));
        writeReg(inst.ra, v);
        rec.readMem = true;
        rec.memAddr = ea;
    } else if (isStore(inst.op)) {
        const unsigned size = memAccessSize(inst.op);
        const Addr ea = ev.value & ~Addr{size - 1};
        const Word v = size == 8 ? ops.a : (ops.a & 0xffffffffull);
        // ops.a is the store data: srcRegs order is [data, base] but the
        // data always comes from ra directly.
        memory.write(ea, v, size);
        rec.wroteMem = true;
        rec.memAddr = ea;
        rec.memValue = v;
    } else if (isControl(inst.op)) {
        rec.taken = ev.taken;
        if (inst.op == Opcode::JMP) {
            // The return-address write lands before target validation —
            // same defined state as the predecoded handlers.
            writeReg(inst.ra, ev.value);
            const Word target = ops.b;
            if (!program->isCodeAddr(target))
                throwBadJmp(*dec, pcIndex, target);
            rec.nextPc = program->indexOf(target);
        } else if (inst.op == Opcode::BR || inst.op == Opcode::BSR) {
            writeReg(inst.ra, ev.value);
            rec.nextPc = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(pcIndex) + 1 + inst.disp);
        } else if (ev.taken) {
            rec.nextPc = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(pcIndex) + 1 + inst.disp);
        }
    } else if (inst.op == Opcode::HALT) {
        isHalted = true;
        rec.halted = true;
        rec.nextPc = pcIndex;
    } else if (inst.op != Opcode::NOP) {
        writeReg(destReg(inst), ev.value);
    }

    pcIndex = rec.nextPc;
    ++steps;
    if (!isHalted && pcIndex >= program->code.size())
        isHalted = true;
    return rec;
}

} // namespace rbsim
