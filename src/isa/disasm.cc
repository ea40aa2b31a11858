#include "isa/disasm.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "isa/opclass.hh"

namespace rbsim
{

std::string
disassemble(const Inst &inst, std::uint64_t index)
{
    std::ostringstream os;
    os << opcodeName(inst.op);

    auto reg = [](unsigned r) { return "r" + std::to_string(r); };
    auto target = [&]() -> std::string {
        if (index == ~0ull)
            return "." + std::to_string(inst.disp);
        return "@" + std::to_string(
            static_cast<std::int64_t>(index) + 1 + inst.disp);
    };

    switch (inst.op) {
      case Opcode::LDIQ:
        os << ' ' << reg(inst.ra) << ", " << inst.imm64;
        break;
      case Opcode::LDA: case Opcode::LDAH:
      case Opcode::LDQ: case Opcode::LDL:
      case Opcode::STQ: case Opcode::STL:
        os << ' ' << reg(inst.ra) << ", " << inst.disp << '('
           << reg(inst.rb) << ')';
        break;
      case Opcode::CTLZ: case Opcode::CTTZ: case Opcode::CTPOP:
        os << ' ' << reg(inst.ra) << ", " << reg(inst.rc);
        break;
      case Opcode::BR:
        os << ' ' << target();
        break;
      case Opcode::BSR:
        os << ' ' << reg(inst.ra) << ", " << target();
        break;
      case Opcode::JMP:
        os << ' ' << reg(inst.ra) << ", " << reg(inst.rb);
        break;
      case Opcode::NOP: case Opcode::HALT:
        break;
      default:
        if (isCondBranch(inst.op)) {
            os << ' ' << reg(inst.ra) << ", " << target();
        } else {
            os << ' ' << reg(inst.ra) << ", ";
            if (inst.useLit)
                os << '#' << static_cast<unsigned>(inst.lit);
            else
                os << reg(inst.rb);
            os << ", " << reg(inst.rc);
        }
        break;
    }
    return os.str();
}

namespace
{

/** True for opcodes whose disp is a label-resolved branch target. */
bool
usesLabelTarget(Opcode op)
{
    return isCondBranch(op) || op == Opcode::BR || op == Opcode::BSR;
}

} // namespace

std::string
disassembleProgram(const Program &prog)
{
    // Pass 1: collect every branch-target instruction index.
    std::set<std::uint64_t> targets;
    if (prog.entry != 0)
        targets.insert(prog.entry);
    for (std::size_t i = 0; i < prog.code.size(); ++i) {
        const Inst &inst = prog.code[i];
        if (usesLabelTarget(inst.op)) {
            targets.insert(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(i) + 1 + inst.disp));
        }
    }

    auto label = [](std::uint64_t idx) {
        return "L" + std::to_string(idx);
    };

    std::ostringstream os;
    os << "; " << prog.code.size() << " instructions\n";
    os << ".name " << prog.name << '\n';
    if (prog.entry != 0)
        os << ".entry " << label(prog.entry) << '\n';

    // The data image in address order, one aligned word per `.quad`,
    // with an `.org` wherever the rendered words skip ahead. Zero words
    // are left out (memory starts zeroed), except that an all-zero page
    // renders its first word, so the page stays resident.
    bool first = true;
    Addr next = 0; //!< address after the last rendered word
    for (const auto *kv : pagesInOrder(prog.image)) {
        const Addr base = kv->first << pageShift;
        const Page &page = *kv->second;
        const bool blank =
            std::all_of(page.begin(), page.end(),
                        [](std::uint8_t b) { return b == 0; });
        for (std::size_t off = 0; off < pageSize; off += 8) {
            Word w = 0;
            for (unsigned b = 0; b < 8; ++b)
                w |= static_cast<Word>(page[off + b]) << (8 * b);
            if (w == 0 && !(blank && off == 0))
                continue;
            if (first || base + off != next)
                os << ".org 0x" << std::hex << base + off << std::dec
                   << '\n';
            // .quad operands parse as signed 64-bit; print accordingly.
            os << ".quad " << static_cast<SWord>(w) << '\n';
            first = false;
            next = base + off + 8;
        }
    }

    for (std::size_t i = 0; i < prog.code.size(); ++i) {
        const Inst &inst = prog.code[i];
        if (targets.count(i))
            os << label(i) << ":\n";
        os << "    ";
        if (usesLabelTarget(inst.op)) {
            const std::uint64_t tgt = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(i) + 1 + inst.disp);
            os << opcodeName(inst.op) << ' ';
            if (inst.op != Opcode::BR)
                os << 'r' << static_cast<unsigned>(inst.ra) << ", ";
            os << label(tgt);
        } else {
            os << disassemble(inst);
        }
        os << '\n';
    }
    // A label bound past the last instruction (e.g. a branch over the
    // final body op) still needs a definition to re-assemble.
    if (targets.count(prog.code.size()))
        os << label(prog.code.size()) << ":\n";
    return os.str();
}

} // namespace rbsim
