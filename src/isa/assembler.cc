#include "isa/assembler.hh"

#include <map>
#include <optional>

#include "common/strutil.hh"
#include "isa/opcode.hh"

namespace rbsim
{

namespace
{

/** A tokenized source line. */
struct SrcLine
{
    unsigned number = 0;
    std::string label;           // empty if none
    std::string mnemonic;        // empty for label-only / directive lines
    std::vector<std::string> operands;
    bool isDirective = false;
};

std::string
stripComment(const std::string &line)
{
    // ';' always starts a comment. '#' does too, unless a digit follows
    // (then it is a literal operand like "#3").
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == ';')
            return line.substr(0, i);
        if (line[i] == '#' &&
            (i + 1 >= line.size() ||
             !std::isdigit(static_cast<unsigned char>(line[i + 1])))) {
            return line.substr(0, i);
        }
    }
    return line;
}

std::optional<SrcLine>
tokenize(unsigned number, const std::string &raw)
{
    std::string text = trim(stripComment(raw));
    if (text.empty())
        return std::nullopt;

    SrcLine out;
    out.number = number;

    // Leading "label:" prefix.
    const std::size_t colon = text.find(':');
    if (colon != std::string::npos &&
        text.find_first_of(" \t(") > colon) {
        out.label = trim(text.substr(0, colon));
        if (out.label.empty())
            throw AsmError(number, "empty label");
        text = trim(text.substr(colon + 1));
        if (text.empty())
            return out;
    }

    const std::size_t sp = text.find_first_of(" \t");
    out.mnemonic = toLower(text.substr(0, sp));
    out.isDirective = !out.mnemonic.empty() && out.mnemonic[0] == '.';
    if (sp != std::string::npos) {
        const std::string rest = text.substr(sp + 1);
        out.operands = splitTokens(rest, ", \t");
    }
    return out;
}

unsigned
parseReg(unsigned line, const std::string &tok)
{
    if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R'))
        throw AsmError(line, "expected register, got '" + tok + "'");
    unsigned n = 0;
    for (std::size_t i = 1; i < tok.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(tok[i])))
            throw AsmError(line, "bad register '" + tok + "'");
        n = n * 10 + static_cast<unsigned>(tok[i] - '0');
    }
    if (n >= numArchRegs)
        throw AsmError(line, "register out of range '" + tok + "'");
    return n;
}

std::int64_t
parseInt(unsigned line, const std::string &tok)
{
    try {
        std::size_t used = 0;
        const std::int64_t v = std::stoll(tok, &used, 0);
        if (used != tok.size())
            throw AsmError(line, "bad integer '" + tok + "'");
        return v;
    } catch (const AsmError &) {
        throw;
    } catch (const std::exception &) {
        throw AsmError(line, "bad integer '" + tok + "'");
    }
}

/** Parse "disp(rb)" for the memory format. */
void
parseMemOperand(unsigned line, const std::string &tok, std::int32_t &disp,
                std::uint8_t &rb)
{
    const std::size_t open = tok.find('(');
    const std::size_t close = tok.find(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open || close != tok.size() - 1) {
        throw AsmError(line, "expected disp(rb), got '" + tok + "'");
    }
    const std::string disp_str = tok.substr(0, open);
    disp = disp_str.empty()
        ? 0
        : static_cast<std::int32_t>(parseInt(line, disp_str));
    rb = static_cast<std::uint8_t>(
        parseReg(line, tok.substr(open + 1, close - open - 1)));
}

/** Kinds of pending label references. */
struct Fixup
{
    std::size_t instIndex;
    std::string label;
    unsigned line;
};

} // namespace

Program
assemble(const std::string &source)
{
    // Split into lines.
    std::vector<std::string> lines;
    {
        std::string cur;
        for (char c : source) {
            if (c == '\n') {
                lines.push_back(cur);
                cur.clear();
            } else {
                cur.push_back(c);
            }
        }
        lines.push_back(cur);
    }

    Program prog;
    std::map<std::string, std::uint64_t> labels;
    std::vector<Fixup> fixups;
    std::string entry_label;
    // `.quad` words since the last `.org`, written as one run: a write
    // replaces the pages it touches, so per-line writes would copy a
    // page per line.
    Addr data_org = 0x20000;
    std::vector<Word> data_run;
    const auto flush_data = [&] {
        prog.addDataWords(data_org, data_run);
        data_org += 8 * data_run.size();
        data_run.clear();
    };
    bool entry_set = false;

    auto requireOperands = [](const SrcLine &sl, std::size_t n) {
        if (sl.operands.size() != n) {
            throw AsmError(sl.number,
                           "expected " + std::to_string(n) +
                           " operands for '" + sl.mnemonic + "'");
        }
    };

    for (unsigned i = 0; i < lines.size(); ++i) {
        const auto parsed = tokenize(i + 1, lines[i]);
        if (!parsed)
            continue;
        const SrcLine &sl = *parsed;

        if (!sl.label.empty()) {
            if (labels.count(sl.label))
                throw AsmError(sl.number, "duplicate label " + sl.label);
            labels[sl.label] = prog.code.size();
        }
        if (sl.mnemonic.empty())
            continue;

        if (sl.isDirective) {
            if (sl.mnemonic == ".name") {
                requireOperands(sl, 1);
                prog.name = sl.operands[0];
            } else if (sl.mnemonic == ".entry") {
                requireOperands(sl, 1);
                entry_label = sl.operands[0];
                entry_set = true;
            } else if (sl.mnemonic == ".org") {
                requireOperands(sl, 1);
                flush_data();
                data_org = static_cast<Addr>(
                    parseInt(sl.number, sl.operands[0]));
            } else if (sl.mnemonic == ".quad") {
                for (const auto &tok : sl.operands) {
                    data_run.push_back(
                        static_cast<Word>(parseInt(sl.number, tok)));
                }
            } else {
                throw AsmError(sl.number,
                               "unknown directive " + sl.mnemonic);
            }
            continue;
        }

        // Pseudo-ops.
        if (sl.mnemonic == "mov") {
            requireOperands(sl, 2);
            Inst inst;
            inst.op = Opcode::BIS;
            inst.ra = static_cast<std::uint8_t>(
                parseReg(sl.number, sl.operands[0]));
            inst.rb = inst.ra;
            inst.rc = static_cast<std::uint8_t>(
                parseReg(sl.number, sl.operands[1]));
            prog.code.push_back(inst);
            continue;
        }
        if (sl.mnemonic == "ret") {
            requireOperands(sl, 1);
            Inst inst;
            inst.op = Opcode::JMP;
            inst.ra = zeroReg;
            inst.rb = static_cast<std::uint8_t>(
                parseReg(sl.number, sl.operands[0]));
            prog.code.push_back(inst);
            continue;
        }

        const auto opcode = parseOpcode(sl.mnemonic);
        if (!opcode)
            throw AsmError(sl.number, "unknown mnemonic " + sl.mnemonic);

        Inst inst;
        inst.op = *opcode;

        switch (*opcode) {
          case Opcode::LDIQ:
            requireOperands(sl, 2);
            inst.ra = static_cast<std::uint8_t>(
                parseReg(sl.number, sl.operands[0]));
            inst.imm64 = parseInt(sl.number, sl.operands[1]);
            break;

          case Opcode::LDA: case Opcode::LDAH:
          case Opcode::LDQ: case Opcode::LDL:
          case Opcode::STQ: case Opcode::STL:
            requireOperands(sl, 2);
            inst.ra = static_cast<std::uint8_t>(
                parseReg(sl.number, sl.operands[0]));
            parseMemOperand(sl.number, sl.operands[1], inst.disp, inst.rb);
            break;

          case Opcode::CTLZ: case Opcode::CTTZ: case Opcode::CTPOP:
            requireOperands(sl, 2);
            inst.ra = static_cast<std::uint8_t>(
                parseReg(sl.number, sl.operands[0]));
            inst.rc = static_cast<std::uint8_t>(
                parseReg(sl.number, sl.operands[1]));
            break;

          case Opcode::BR:
            requireOperands(sl, 1);
            inst.ra = zeroReg;
            fixups.push_back({prog.code.size(), sl.operands[0], sl.number});
            break;

          case Opcode::BSR:
            requireOperands(sl, 2);
            inst.ra = static_cast<std::uint8_t>(
                parseReg(sl.number, sl.operands[0]));
            fixups.push_back({prog.code.size(), sl.operands[1], sl.number});
            break;

          case Opcode::JMP:
            requireOperands(sl, 2);
            inst.ra = static_cast<std::uint8_t>(
                parseReg(sl.number, sl.operands[0]));
            inst.rb = static_cast<std::uint8_t>(
                parseReg(sl.number, sl.operands[1]));
            break;

          case Opcode::NOP: case Opcode::HALT:
            requireOperands(sl, 0);
            break;

          default:
            if (isCondBranch(*opcode)) {
                requireOperands(sl, 2);
                inst.ra = static_cast<std::uint8_t>(
                    parseReg(sl.number, sl.operands[0]));
                fixups.push_back(
                    {prog.code.size(), sl.operands[1], sl.number});
            } else {
                // Operate format: op ra, rb|#lit, rc.
                requireOperands(sl, 3);
                inst.ra = static_cast<std::uint8_t>(
                    parseReg(sl.number, sl.operands[0]));
                const std::string &mid = sl.operands[1];
                if (!mid.empty() && mid[0] == '#') {
                    const std::int64_t lit =
                        parseInt(sl.number, mid.substr(1));
                    if (lit < 0 || lit > 255) {
                        throw AsmError(sl.number,
                                       "literal out of range " + mid);
                    }
                    inst.useLit = true;
                    inst.lit = static_cast<std::uint8_t>(lit);
                } else {
                    inst.rb = static_cast<std::uint8_t>(
                        parseReg(sl.number, mid));
                }
                inst.rc = static_cast<std::uint8_t>(
                    parseReg(sl.number, sl.operands[2]));
            }
            break;
        }
        prog.code.push_back(inst);
    }
    flush_data();

    // Resolve label references.
    for (const Fixup &f : fixups) {
        const auto it = labels.find(f.label);
        if (it == labels.end())
            throw AsmError(f.line, "undefined label " + f.label);
        prog.code[f.instIndex].disp = static_cast<std::int32_t>(
            static_cast<std::int64_t>(it->second) -
            static_cast<std::int64_t>(f.instIndex) - 1);
    }

    if (entry_set) {
        const auto it = labels.find(entry_label);
        if (it == labels.end())
            throw AsmError(1, "undefined entry label " + entry_label);
        prog.entry = it->second;
    }
    return prog;
}

} // namespace rbsim
