#include "func/predecode.hh"

#include <cstdlib>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "isa/inst.hh"

namespace rbsim
{

namespace
{

/** Does evalOp consume ops.b for this opcode? (Decides whether a
 * `useLit` literal needs a constant-pool slot.) */
bool
readsB(Opcode op)
{
    switch (op) {
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE: case Opcode::BLE: case Opcode::BGT:
      case Opcode::BLBS: case Opcode::BLBC:
      case Opcode::BR: case Opcode::BSR:
      case Opcode::LDIQ:
      case Opcode::CTLZ: case Opcode::CTTZ: case Opcode::CTPOP:
      case Opcode::NOP: case Opcode::HALT:
        return false;
      default:
        return true;
    }
}

/** Straight opcode -> handler map for the operate/memory cases that
 * need no extra decode-time context. */
Handler
baseHandler(Opcode op)
{
    switch (op) {
      case Opcode::ADDQ: return Handler::AddQ;
      case Opcode::SUBQ: return Handler::SubQ;
      case Opcode::ADDL: return Handler::AddL;
      case Opcode::SUBL: return Handler::SubL;
      case Opcode::S4ADDQ: return Handler::S4AddQ;
      case Opcode::S8ADDQ: return Handler::S8AddQ;
      case Opcode::S4SUBQ: return Handler::S4SubQ;
      case Opcode::S8SUBQ: return Handler::S8SubQ;
      case Opcode::LDA: case Opcode::LDAH: return Handler::Lda;
      case Opcode::LDIQ: return Handler::Const;
      case Opcode::MULQ: return Handler::MulQ;
      case Opcode::MULL: return Handler::MulL;
      case Opcode::AND: return Handler::And;
      case Opcode::BIS: return Handler::Bis;
      case Opcode::XOR: return Handler::Xor;
      case Opcode::BIC: return Handler::Bic;
      case Opcode::ORNOT: return Handler::Ornot;
      case Opcode::EQV: return Handler::Eqv;
      case Opcode::SLL: return Handler::Sll;
      case Opcode::SRL: return Handler::Srl;
      case Opcode::SRA: return Handler::Sra;
      case Opcode::CMPEQ: return Handler::CmpEq;
      case Opcode::CMPLT: return Handler::CmpLt;
      case Opcode::CMPLE: return Handler::CmpLe;
      case Opcode::CMPULT: return Handler::CmpUlt;
      case Opcode::CMPULE: return Handler::CmpUle;
      case Opcode::CMOVEQ: return Handler::CmovEq;
      case Opcode::CMOVNE: return Handler::CmovNe;
      case Opcode::CMOVLT: return Handler::CmovLt;
      case Opcode::CMOVGE: return Handler::CmovGe;
      case Opcode::CMOVLE: return Handler::CmovLe;
      case Opcode::CMOVGT: return Handler::CmovGt;
      case Opcode::CMOVLBS: return Handler::CmovLbs;
      case Opcode::CMOVLBC: return Handler::CmovLbc;
      case Opcode::CTLZ: return Handler::Ctlz;
      case Opcode::CTTZ: return Handler::Cttz;
      case Opcode::CTPOP: return Handler::Ctpop;
      case Opcode::EXTBL: return Handler::Extbl;
      case Opcode::EXTWL: return Handler::Extwl;
      case Opcode::EXTLL: return Handler::Extll;
      case Opcode::INSBL: return Handler::Insbl;
      case Opcode::MSKBL: return Handler::Mskbl;
      case Opcode::ZAPNOT: return Handler::Zapnot;
      case Opcode::LDQ: return Handler::Ld8;
      case Opcode::LDL: return Handler::Ld4;
      case Opcode::STQ: return Handler::St8;
      case Opcode::STL: return Handler::St4;
      case Opcode::BEQ: return Handler::Beq;
      case Opcode::BNE: return Handler::Bne;
      case Opcode::BLT: return Handler::Blt;
      case Opcode::BGE: return Handler::Bge;
      case Opcode::BLE: return Handler::Ble;
      case Opcode::BGT: return Handler::Bgt;
      case Opcode::BLBS: return Handler::Blbs;
      case Opcode::BLBC: return Handler::Blbc;
      // The FP subset runs on integer values (DESIGN.md); ADDT/MULT
      // fold onto their integer twins, DIVT keeps its zero guard.
      case Opcode::ADDT: return Handler::AddQ;
      case Opcode::MULT: return Handler::MulQ;
      case Opcode::DIVT: return Handler::DivT;
      case Opcode::NOP: return Handler::Nop;
      case Opcode::HALT: return Handler::Halt;
      case Opcode::BR: case Opcode::BSR: case Opcode::JMP:
      default:
        break; // resolved by the caller
    }
    assert(false && "unmapped opcode in predecode");
    return Handler::Nop;
}

/** An operate op (writes a register and does nothing else), so a dead
 * r31 destination makes the whole instruction a NOP. */
bool
foldableWhenDead(Opcode op)
{
    return !isLoad(op) && !isStore(op) && !isControl(op) &&
           op != Opcode::NOP && op != Opcode::HALT;
}

std::shared_ptr<const DecodedProgram>
buildDecodedProgram(const Program &prog, std::uint64_t hash)
{
    auto out = std::make_shared<DecodedProgram>();
    out->codeBase = prog.codeBase;
    out->codeSize = prog.code.size();
    out->progHash = hash;

    // Pass 1: the literal pool. At most 256 distinct 8-bit values, in
    // first-encounter order so decode is deterministic.
    std::unordered_map<std::uint8_t, std::uint16_t> litSlot;
    for (const Inst &inst : prog.code) {
        if (inst.useLit && readsB(inst.op) &&
            !litSlot.count(inst.lit)) {
            const auto slot = static_cast<std::uint16_t>(
                numArchRegs + out->pool.size());
            litSlot.emplace(inst.lit, slot);
            out->pool.push_back(inst.lit);
        }
    }
    out->scratch =
        static_cast<std::uint16_t>(numArchRegs + out->pool.size());

    // Pass 2: lower every instruction.
    out->ops.reserve(prog.code.size());
    for (std::uint64_t i = 0; i < prog.code.size(); ++i) {
        const Inst &inst = prog.code[i];
        DecodedOp d;
        d.ra = inst.ra;
        d.rb = inst.useLit && readsB(inst.op) ? litSlot.at(inst.lit)
                                              : inst.rb;
        d.rc = inst.rc;
        const unsigned dest = destReg(inst);
        d.rd = dest == zeroReg ? out->scratch
                               : static_cast<std::uint16_t>(dest);

        const Word sdisp =
            static_cast<Word>(static_cast<SWord>(inst.disp));
        switch (inst.op) {
          case Opcode::LDA:
            d.h = Handler::Lda;
            d.k = sdisp;
            break;
          case Opcode::LDAH:
            d.h = Handler::Lda;
            d.k = sdisp << 16;
            break;
          case Opcode::LDIQ:
            d.h = Handler::Const;
            d.k = static_cast<Word>(inst.imm64);
            break;
          case Opcode::LDQ: case Opcode::LDL:
          case Opcode::STQ: case Opcode::STL:
            d.h = baseHandler(inst.op);
            d.k = sdisp;
            break;
          case Opcode::BR:
            d.h = Handler::Br;
            break;
          case Opcode::BSR:
            // BSR pushes the RAS only when it links; an unlinked BSR
            // warms like a plain BR.
            d.h = inst.ra != zeroReg ? Handler::Bsr : Handler::Br;
            break;
          case Opcode::JMP:
            d.h = inst.ra == zeroReg ? Handler::JmpRet
                                     : Handler::JmpCall;
            break;
          default:
            d.h = baseHandler(inst.op);
            break;
        }

        if (isCondBranch(inst.op) || inst.op == Opcode::BR ||
            inst.op == Opcode::BSR) {
            // Raw i64 arithmetic, exactly the reference's nextPc: an
            // off-image target must round-trip bit-for-bit through
            // StepRecord before the halt check fires.
            d.target = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(i) + 1 + inst.disp);
        }
        if (isControl(inst.op) && !isCondBranch(inst.op))
            d.k = prog.byteAddrOf(i + 1); // BR/BSR/JMP return address

        // Operate ops writing r31 have no architectural effect at all.
        if (dest == zeroReg && foldableWhenDead(inst.op))
            d = DecodedOp{}; // Handler::Nop

        out->ops.push_back(d);
    }
    return out;
}

} // namespace

std::shared_ptr<const DecodedProgram>
decodeProgram(const Program &prog, std::uint64_t prog_hash)
{
    // Process-wide bounded cache. Eviction is a full clear — holders
    // keep their shared_ptrs alive, and 256 distinct programs resident
    // at once only happens in fuzz campaigns, where re-decoding is
    // noise next to the simulations.
    static std::mutex mu;
    static std::unordered_map<std::uint64_t,
                              std::shared_ptr<const DecodedProgram>>
        cache;
    constexpr std::size_t cacheCap = 256;

    std::lock_guard<std::mutex> lock(mu);
    if (const auto it = cache.find(prog_hash); it != cache.end())
        return it->second;
    auto dp = buildDecodedProgram(prog, prog_hash);
    if (cache.size() >= cacheCap)
        cache.clear();
    cache.emplace(prog_hash, dp);
    return dp;
}

bool
threadedDispatchEnabled()
{
#if RBSIM_HAS_COMPUTED_GOTO
    static const bool enabled = [] {
        const char *env = std::getenv("RBSIM_FORCE_SWITCH");
        const bool force_switch = env != nullptr && *env != '\0' &&
                                  !(env[0] == '0' && env[1] == '\0');
        return !force_switch;
    }();
    return enabled;
#else
    return false;
#endif
}

const char *
dispatchName()
{
    return threadedDispatchEnabled() ? "goto" : "switch";
}

void
throwBadJmp(const DecodedProgram &dp, std::uint64_t pc_index, Addr target)
{
    std::ostringstream os;
    os << "JMP to a non-code address: pc index " << pc_index
       << " jumps to 0x" << std::hex << target << std::dec
       << " (code spans [0x" << std::hex << dp.codeBase << ", 0x"
       << dp.codeBase + 4 * dp.codeSize << std::dec << "), "
       << dp.codeSize << " insts)";
    throw InterpError(os.str(), pc_index, target);
}

} // namespace rbsim
