#include "isa/builder.hh"

namespace rbsim
{

CodeBuilder::CodeBuilder(std::string program_name)
{
    prog.name = std::move(program_name);
}

Label
CodeBuilder::newLabel()
{
    Label l{static_cast<std::uint32_t>(labelPos.size())};
    labelPos.push_back(-1);
    return l;
}

void
CodeBuilder::bind(Label l)
{
    assert(l.id < labelPos.size());
    assert(labelPos[l.id] == -1 && "label bound twice");
    labelPos[l.id] = static_cast<std::int64_t>(code.size());
}

Addr
CodeBuilder::labelByteAddr(Label l) const
{
    assert(l.id < labelPos.size() && labelPos[l.id] >= 0);
    return prog.codeBase +
           4 * static_cast<Addr>(labelPos[l.id]);
}

void
CodeBuilder::emit(const Inst &inst)
{
    assert(!finished);
    code.push_back(inst);
}

void
CodeBuilder::op3(Opcode op, Reg ra, Reg rb, Reg rc)
{
    Inst i;
    i.op = op;
    i.ra = ra.n;
    i.rb = rb.n;
    i.rc = rc.n;
    emit(i);
}

void
CodeBuilder::opi(Opcode op, Reg ra, std::uint8_t lit, Reg rc)
{
    Inst i;
    i.op = op;
    i.ra = ra.n;
    i.useLit = true;
    i.lit = lit;
    i.rc = rc.n;
    emit(i);
}

void
CodeBuilder::op1(Opcode op, Reg ra, Reg rc)
{
    Inst i;
    i.op = op;
    i.ra = ra.n;
    i.rc = rc.n;
    emit(i);
}

void
CodeBuilder::lda(Reg ra, std::int32_t disp, Reg rb)
{
    assert(disp >= -32768 && disp <= 32767);
    Inst i;
    i.op = Opcode::LDA;
    i.ra = ra.n;
    i.rb = rb.n;
    i.disp = disp;
    emit(i);
}

void
CodeBuilder::ldah(Reg ra, std::int32_t disp, Reg rb)
{
    assert(disp >= -32768 && disp <= 32767);
    Inst i;
    i.op = Opcode::LDAH;
    i.ra = ra.n;
    i.rb = rb.n;
    i.disp = disp;
    emit(i);
}

void
CodeBuilder::ldiq(Reg ra, std::int64_t value)
{
    Inst i;
    i.op = Opcode::LDIQ;
    i.ra = ra.n;
    i.imm64 = value;
    emit(i);
}

void
CodeBuilder::mov(Reg src, Reg dst)
{
    // The standard Alpha MOVE idiom: both logical sources are the same
    // register, which is the one case where a logical op accepts an RB
    // input (paper section 3.6).
    op3(Opcode::BIS, src, src, dst);
}

void
CodeBuilder::load(Opcode op, Reg ra, std::int32_t disp, Reg rb)
{
    assert(isLoad(op));
    Inst i;
    i.op = op;
    i.ra = ra.n;
    i.rb = rb.n;
    i.disp = disp;
    emit(i);
}

void
CodeBuilder::store(Opcode op, Reg ra, std::int32_t disp, Reg rb)
{
    assert(isStore(op));
    Inst i;
    i.op = op;
    i.ra = ra.n;
    i.rb = rb.n;
    i.disp = disp;
    emit(i);
}

void
CodeBuilder::branch(Opcode op, Reg ra, Label target)
{
    assert(isCondBranch(op));
    Inst i;
    i.op = op;
    i.ra = ra.n;
    fixups.emplace_back(code.size(), target);
    emit(i);
}

void
CodeBuilder::br(Label target)
{
    Inst i;
    i.op = Opcode::BR;
    i.ra = zeroReg;
    fixups.emplace_back(code.size(), target);
    emit(i);
}

void
CodeBuilder::bsr(Reg ra, Label target)
{
    Inst i;
    i.op = Opcode::BSR;
    i.ra = ra.n;
    fixups.emplace_back(code.size(), target);
    emit(i);
}

void
CodeBuilder::jmp(Reg ra, Reg rb)
{
    Inst i;
    i.op = Opcode::JMP;
    i.ra = ra.n;
    i.rb = rb.n;
    emit(i);
}

void
CodeBuilder::nop()
{
    emit(Inst{});
}

void
CodeBuilder::halt()
{
    Inst i;
    i.op = Opcode::HALT;
    emit(i);
}

void
CodeBuilder::dataWords(Addr base, const std::vector<Word> &words)
{
    prog.addDataWords(base, words);
}

Program
CodeBuilder::finish()
{
    assert(!finished);
    for (const auto &[pos, label] : fixups) {
        assert(label.id < labelPos.size());
        const std::int64_t target = labelPos[label.id];
        assert(target >= 0 && "finish() with unbound label");
        code[pos].disp = static_cast<std::int32_t>(
            target - static_cast<std::int64_t>(pos) - 1);
    }
    prog.code = std::move(code);
    finished = true;
    return std::move(prog);
}

} // namespace rbsim
