/**
 * @file
 * Programmatic code emission with labels — the API the workload generators
 * use to build TinyAlpha programs.
 *
 * Usage:
 * @code
 *   CodeBuilder cb("kernel");
 *   auto loop = cb.newLabel();
 *   cb.ldiq(R(1), 100);
 *   cb.bind(loop);
 *   cb.opi(Opcode::SUBQ, R(1), 1, R(1));
 *   cb.branch(Opcode::BNE, R(1), loop);
 *   cb.halt();
 *   Program p = cb.finish();
 * @endcode
 */

#ifndef RBSIM_ISA_BUILDER_HH
#define RBSIM_ISA_BUILDER_HH

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace rbsim
{

/** Typed wrapper for an architectural register number. */
struct Reg
{
    std::uint8_t n = zeroReg;
};

/** Shorthand constructor: R(7) is register r7. */
inline Reg
R(unsigned n)
{
    assert(n < numArchRegs);
    return Reg{static_cast<std::uint8_t>(n)};
}

/** An opaque label handle. */
struct Label
{
    std::uint32_t id = ~0u;
};

/**
 * Two-pass code builder: emit instructions referencing labels, bind labels
 * anywhere, and finish() patches displacements.
 */
class CodeBuilder
{
  public:
    explicit CodeBuilder(std::string program_name);

    /** Create an unbound label. */
    Label newLabel();

    /** Bind a label to the next emitted instruction. */
    void bind(Label l);

    /** Current instruction index (for size accounting). */
    std::uint64_t here() const { return code.size(); }

    /**
     * Byte address a bound label will have in the finished program
     * (for building jump tables in data memory).
     * @pre the label is already bound
     */
    Addr labelByteAddr(Label l) const;

    // --- operate format ---

    /** op ra, rb, rc */
    void op3(Opcode op, Reg ra, Reg rb, Reg rc);

    /** op ra, #lit, rc (8-bit zero-extended literal) */
    void opi(Opcode op, Reg ra, std::uint8_t lit, Reg rc);

    /** Unary operate (CTLZ/CTTZ/CTPOP): op ra, rc. */
    void op1(Opcode op, Reg ra, Reg rc);

    // --- immediates and address arithmetic ---

    /** lda ra, disp(rb): ra = rb + disp (16-bit signed reach). */
    void lda(Reg ra, std::int32_t disp, Reg rb);

    /** ldah ra, disp(rb): ra = rb + disp * 65536. */
    void ldah(Reg ra, std::int32_t disp, Reg rb);

    /** Materialize an arbitrary 64-bit constant. */
    void ldiq(Reg ra, std::int64_t value);

    /** Register move (the Alpha idiom BIS rb, rb, rc). */
    void mov(Reg src, Reg dst);

    // --- memory ---

    /** Load: op ra, disp(rb). */
    void load(Opcode op, Reg ra, std::int32_t disp, Reg rb);

    /** Store: op ra, disp(rb). */
    void store(Opcode op, Reg ra, std::int32_t disp, Reg rb);

    // --- control ---

    /** Conditional branch to a label. */
    void branch(Opcode op, Reg ra, Label target);

    /** Unconditional branch. */
    void br(Label target);

    /** Branch-to-subroutine: ra receives the return byte address. */
    void bsr(Reg ra, Label target);

    /** Indirect jump: ra receives the return address, target = value(rb). */
    void jmp(Reg ra, Reg rb);

    /** Return: jump to the byte address in rb. */
    void ret(Reg rb) { jmp(R(zeroReg), rb); }

    /** nop / halt */
    void nop();
    void halt();

    // --- data ---

    /** Attach a data segment of 64-bit words. */
    void dataWords(Addr base, const std::vector<Word> &words);

    /**
     * Resolve labels and produce the program.
     * @pre every referenced label has been bound
     */
    Program finish();

  private:
    void emit(const Inst &inst);

    Program prog;
    std::vector<Inst> code;
    std::vector<std::int64_t> labelPos;          // -1 while unbound
    std::vector<std::pair<std::size_t, Label>> fixups;
    bool finished = false;
};

} // namespace rbsim

#endif // RBSIM_ISA_BUILDER_HH
