/**
 * @file
 * Predecoded program representation and the threaded-dispatch execute
 * loop behind the functional interpreter (docs/PERFORMANCE.md §8).
 *
 * `decodeProgram` lowers a Program once into a dense array of
 * `DecodedOp` records: a resolved handler id, an operand-fetch plan
 * (register-file slot indices; literals live in a per-program constant
 * pool appended to the register file so operand fetch never branches on
 * `useLit`), the pre-sign-extended displacement or immediate, the
 * precomputed branch-target pc index and `byteAddrOf` return address,
 * and the load/store size+sign baked into the handler itself. The
 * result is cached process-wide keyed by `Program::hash()`, so an
 * interpreter built for a program already seen decodes nothing.
 *
 * `execDecodedLoop` is the one hot loop, written once and instantiated
 * for both dispatch strategies and every event sink:
 *
 *  - token-threaded dispatch (computed goto, GNU C `&&label`) on
 *    GCC/Clang: every handler ends in its own indirect jump, giving the
 *    host branch predictor one BTB entry per (handler, successor) pair;
 *  - a portable `switch` fallback, also selectable at runtime with
 *    `RBSIM_FORCE_SWITCH=1` in the environment, which is what the CI
 *    parity lane pins to prove both strategies execute bit-identically.
 *
 * The `Sink` parameter is a compile-time event listener: the record-free
 * `Interp::runFast` passes `NullExecSink` (all hooks inline to nothing),
 * the co-simulation `Interp::step` passes a StepRecord-building sink,
 * and `FastForward::run` passes a warming sink that touches cache tags
 * and predictor state. One loop body, three specializations, zero
 * dispatch overhead for the hooks.
 *
 * Register-file slot layout shared by Interp and the loop:
 *   [0, 32)              architectural registers (slot 31 pinned to 0)
 *   [32, 32 + pool)      literal-pool constants (written once at bind)
 *   [32 + pool]          scratch: writes whose architectural dest is r31
 * Redirecting dead destinations at decode time makes every register
 * write unconditional — no zero-register test anywhere in the loop.
 */

#ifndef RBSIM_FUNC_PREDECODE_HH
#define RBSIM_FUNC_PREDECODE_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/bitutil.hh"
#include "func/mem_image.hh"
#include "isa/program.hh"

//! Token-threaded dispatch needs the GNU computed-goto extension; other
//! compilers fall back to the switch loop unconditionally.
#if defined(__GNUC__) || defined(__clang__)
#define RBSIM_HAS_COMPUTED_GOTO 1
#else
#define RBSIM_HAS_COMPUTED_GOTO 0
#endif

namespace rbsim
{

/**
 * A program-level fault the functional model detects at execution time
 * (currently: JMP to an address outside the code image). Unlike the
 * LSQ/ROB `fatal` aborts — which flag *model* invariant violations —
 * this is a property of the simulated program, so it is a catchable
 * error in every build type rather than a Release no-op assert. The
 * interpreter is left in a defined state: the faulting instruction's
 * return-address write (if any) has landed, the PC still points at the
 * faulting instruction, and its step is uncounted.
 */
class InterpError : public std::runtime_error
{
  public:
    InterpError(const std::string &what, std::uint64_t pc_index,
                Addr target_addr)
        : std::runtime_error(what), pcIndex(pc_index), target(target_addr)
    {}

    std::uint64_t pcIndex; //!< instruction index of the faulting op
    Addr target;           //!< the offending byte address
};

/**
 * Execution handlers, one per distinct semantic case after decode-time
 * resolution (LDA/LDAH share one handler behind a pre-shifted constant;
 * LDIQ becomes a generic constant load; ADDT/MULT alias their integer
 * twins; operate ops whose destination is r31 decode to Nop; BSR and
 * JMP split by their RAS discipline). The X-macro keeps the enum, the
 * computed-goto table, and the handler count in sync by construction.
 */
#define RBSIM_HANDLERS(X)                                                \
    X(AddQ) X(SubQ) X(AddL) X(SubL)                                      \
    X(S4AddQ) X(S8AddQ) X(S4SubQ) X(S8SubQ)                              \
    X(Lda) X(Const) X(MulQ) X(MulL)                                      \
    X(And) X(Bis) X(Xor) X(Bic) X(Ornot) X(Eqv)                          \
    X(Sll) X(Srl) X(Sra)                                                 \
    X(CmpEq) X(CmpLt) X(CmpLe) X(CmpUlt) X(CmpUle)                       \
    X(CmovEq) X(CmovNe) X(CmovLt) X(CmovGe)                              \
    X(CmovLe) X(CmovGt) X(CmovLbs) X(CmovLbc)                            \
    X(Ctlz) X(Cttz) X(Ctpop)                                             \
    X(Extbl) X(Extwl) X(Extll) X(Insbl) X(Mskbl) X(Zapnot)               \
    X(DivT)                                                              \
    X(Ld8) X(Ld4) X(St8) X(St4)                                          \
    X(Beq) X(Bne) X(Blt) X(Bge) X(Ble) X(Bgt) X(Blbs) X(Blbc)            \
    X(Br) X(Bsr) X(JmpRet) X(JmpCall)                                    \
    X(Nop) X(Halt)

/** Handler ids (indices into the dispatch table). */
enum class Handler : std::uint8_t
{
#define RBSIM_HANDLER_ENUM(name) name,
    RBSIM_HANDLERS(RBSIM_HANDLER_ENUM)
#undef RBSIM_HANDLER_ENUM
};

/** Number of handlers. */
constexpr unsigned numHandlers = 0
#define RBSIM_HANDLER_COUNT(name) +1
    RBSIM_HANDLERS(RBSIM_HANDLER_COUNT)
#undef RBSIM_HANDLER_COUNT
    ;

/**
 * One predecoded instruction (32 bytes). `ra/rb/rc` are register-file
 * *slot* indices (arch register, literal-pool slot, never scratch);
 * `rd` is the destination slot (scratch when the architectural dest is
 * r31). `target` is the precomputed fall-off-raw next pc index of a
 * direct branch — raw i64 arithmetic like the reference, so an
 * off-the-end target reproduces the reference's StepRecord::nextPc
 * bit-for-bit. `k` is the handler constant: the sign-extended (and for
 * LDAH pre-shifted) displacement for memory/LDA ops, the immediate for
 * Const, and the `byteAddrOf` return address for BR/BSR/JMP.
 */
struct DecodedOp
{
    Handler h = Handler::Nop;
    std::uint16_t ra = 0;
    std::uint16_t rb = 0;
    std::uint16_t rc = 0;
    std::uint16_t rd = 0;
    std::uint64_t target = 0;
    std::uint64_t k = 0;
};

static_assert(sizeof(DecodedOp) <= 32, "keep DecodedOp cache-friendly");

/** A fully lowered program; immutable and shareable across interpreters
 * (the decode cache hands out shared_ptrs keyed by Program::hash()). */
struct DecodedProgram
{
    std::vector<DecodedOp> ops;
    std::vector<Word> pool;    //!< literal-pool slot values
    Addr codeBase = 0;
    std::uint64_t codeSize = 0; //!< instruction count
    std::uint64_t progHash = 0;

    /** Scratch slot index (also: first index past the literal pool). */
    std::uint16_t scratch = 0;

    /** Register-file slots an executor must provide. */
    std::size_t slotCount() const { return std::size_t{scratch} + 1; }
};

/**
 * Lower `prog` (or fetch the cached lowering — process-wide, bounded,
 * keyed by Program::hash(); equal hashes are treated as equal programs,
 * the same contract the serve result cache relies on). A caller that
 * already holds `prog_hash` == prog.hash() passes it, and the lookup
 * hashes nothing.
 */
std::shared_ptr<const DecodedProgram> decodeProgram(const Program &prog,
                                                    std::uint64_t prog_hash);

/** decodeProgram() for a program whose hash the caller does not hold. */
inline std::shared_ptr<const DecodedProgram>
decodeProgram(const Program &prog)
{
    return decodeProgram(prog, prog.hash());
}

/** True when the computed-goto loop is compiled in and the environment
 * did not pin `RBSIM_FORCE_SWITCH` (resolved once per process). */
bool threadedDispatchEnabled();

/** Dispatch strategy name for logs/benches: "goto" or "switch". */
const char *dispatchName();

/** Raise the structured bad-JMP error (satellite of PR 10). */
[[noreturn]] void throwBadJmp(const DecodedProgram &dp,
                              std::uint64_t pc_index, Addr target);

/**
 * The mutable state `execDecodedLoop` advances. Plain pointers/values so
 * the loop keeps everything in registers; the caller copies the results
 * back (on both return and throw — handlers sync pc/steps before
 * raising InterpError).
 */
struct ExecCtx
{
    Word *regs = nullptr;          //!< slotCount() entries, laid out above
    MemImage *mem = nullptr;
    const DecodedProgram *dp = nullptr;
    std::uint64_t pc = 0;          //!< instruction index
    std::uint64_t steps = 0;       //!< incremented by executed count
    bool halted = false;
};

/** The do-nothing event sink (`Interp::runFast`). Hooks mirror exactly
 * the facts StepRecord/functional-warming consumers need; every hook
 * inlines to nothing here. */
struct NullExecSink
{
    void preStep(std::uint64_t) {}
    void regWrite(std::uint16_t, Word) {}
    void load(Addr, Word) {}
    void store(Addr, Word) {}
    void condBranch(std::uint64_t, bool) {}
    void br() {}
    void bsr(Addr) {}
    void jmpRet() {}
    void jmpCall(std::uint64_t, std::uint64_t, Addr) {}
    void halt() {}
};

namespace detail
{

/** ZAPNOT byte mask (must match eval.cc's). */
inline Word
zapnotByteMask(Word mask)
{
    Word out = 0;
    for (unsigned i = 0; i < 8; ++i) {
        if ((mask >> i) & 1)
            out |= Word{0xff} << (8 * i);
    }
    return out;
}

/** Sign-extend the low 32 bits (longword results). */
inline Word
sext32(Word w)
{
    return static_cast<Word>(sext(w, 32));
}

} // namespace detail

/**
 * Execute up to `max_steps` instructions from `cx`, reporting events to
 * `sink`. Returns the number executed; `cx.pc/steps/halted` are synced
 * on every exit path, including the InterpError throw.
 *
 * Written once as a switch whose cases double as computed-goto labels:
 * the `UseGoto` instantiation re-dispatches from the tail of every
 * handler (token-threading), the portable one jumps back to the single
 * switch at the top. Do not instantiate `UseGoto=true` without
 * RBSIM_HAS_COMPUTED_GOTO.
 */
template <bool UseGoto, class Sink>
std::uint64_t
execDecodedLoop(ExecCtx &cx, std::uint64_t max_steps, Sink &sink)
{
    static_assert(!UseGoto || RBSIM_HAS_COMPUTED_GOTO,
                  "threaded dispatch needs the GNU computed-goto "
                  "extension");

    const DecodedOp *const ops = cx.dp->ops.data();
    const std::uint64_t n = cx.dp->codeSize;
    const Addr cb = cx.dp->codeBase;
    const Addr code_bytes = Addr{4} * n;
    Word *const R = cx.regs;
    MemImage *const M = cx.mem;

    std::uint64_t pc = cx.pc;
    // Step count is derived as `max_steps - left` on every exit path,
    // keeping the per-step bookkeeping to the single budget decrement.
    std::uint64_t left = max_steps;

    if (cx.halted || left == 0)
        return 0;
    if (pc >= n) {
        // A PC already off the code image is the run-off-the-end halt
        // state (see Interp::setPc).
        cx.halted = true;
        return 0;
    }
    const DecodedOp *d = &ops[pc];

#if RBSIM_HAS_COMPUTED_GOTO
    // Built in both instantiations (taking a label's address marks it
    // used); only the UseGoto one jumps through it.
#define RBSIM_HANDLER_ADDR(name) &&H_##name,
    static const void *const jumpTable[numHandlers] = {
        RBSIM_HANDLERS(RBSIM_HANDLER_ADDR)};
#undef RBSIM_HANDLER_ADDR
    (void)jumpTable;
#define RBSIM_TGOTO() goto *jumpTable[static_cast<unsigned>(d->h)]
#define RBSIM_CASE(name) case Handler::name: H_##name:
#else
#define RBSIM_TGOTO() std::abort() /* never instantiated */
#define RBSIM_CASE(name) case Handler::name:
#endif

    // Step bookkeeping + re-dispatch, expanded at the tail of every
    // handler (so the threaded build gets one indirect jump per
    // handler).
#define RBSIM_NEXT_AT(np)                                                \
    do {                                                                 \
        pc = (np);                                                       \
        --left;                                                          \
        /* Halt check before the budget check: running off the code   */ \
        /* image halts even when this was the last budgeted step      */ \
        /* (the reference sets halted after every step).              */ \
        if (pc >= n) {                                                   \
            cx.halted = true;                                            \
            goto L_out;                                                  \
        }                                                                \
        if (left == 0)                                                   \
            goto L_out;                                                  \
        if constexpr (UseGoto) {                                         \
            sink.preStep(pc);                                            \
            d = &ops[pc];                                                \
            RBSIM_TGOTO();                                               \
        } else {                                                         \
            goto L_top;                                                  \
        }                                                                \
    } while (0)
#define RBSIM_NEXT() RBSIM_NEXT_AT(pc + 1)

    // A two-source operate op: dest <- expr over slots a/b.
#define RBSIM_BINOP(name, expr)                                          \
    RBSIM_CASE(name)                                                     \
    {                                                                    \
        const Word a = R[d->ra];                                         \
        const Word b = R[d->rb];                                         \
        (void)a;                                                         \
        (void)b;                                                         \
        const Word v = (expr);                                           \
        R[d->rd] = v;                                                    \
        sink.regWrite(d->rd, v);                                         \
        RBSIM_NEXT();                                                    \
    }

    // Conditional move: cond(a) ? b : old dest.
#define RBSIM_CMOV(name, cond)                                           \
    RBSIM_CASE(name)                                                     \
    {                                                                    \
        const Word a = R[d->ra];                                         \
        const Word v = (cond) ? R[d->rb] : R[d->rc];                     \
        R[d->rd] = v;                                                    \
        sink.regWrite(d->rd, v);                                         \
        RBSIM_NEXT();                                                    \
    }

    // Conditional branch on a; target precomputed at decode.
#define RBSIM_CONDBR(name, cond)                                         \
    RBSIM_CASE(name)                                                     \
    {                                                                    \
        const Word a = R[d->ra];                                         \
        (void)a;                                                         \
        const bool t = (cond);                                           \
        sink.condBranch(pc, t);                                          \
        if (t)                                                           \
            RBSIM_NEXT_AT(d->target);                                    \
        RBSIM_NEXT();                                                    \
    }

    if constexpr (UseGoto) {
        sink.preStep(pc);
        d = &ops[pc];
        RBSIM_TGOTO();
    }

// In the UseGoto instantiation the only reference to this label sits in
// a discarded `if constexpr` branch, so tell the compiler it may go
// unused.
#if RBSIM_HAS_COMPUTED_GOTO
L_top: __attribute__((unused));
#else
L_top:;
#endif
    sink.preStep(pc);
    d = &ops[pc];
    switch (d->h) {
        RBSIM_BINOP(AddQ, a + b)
        RBSIM_BINOP(SubQ, a - b)
        RBSIM_BINOP(AddL, detail::sext32(a + b))
        RBSIM_BINOP(SubL, detail::sext32(a - b))
        RBSIM_BINOP(S4AddQ, (a << 2) + b)
        RBSIM_BINOP(S8AddQ, (a << 3) + b)
        RBSIM_BINOP(S4SubQ, (a << 2) - b)
        RBSIM_BINOP(S8SubQ, (a << 3) - b)
        RBSIM_BINOP(MulQ, a * b)
        RBSIM_BINOP(MulL, detail::sext32(a * b))
        RBSIM_BINOP(And, a & b)
        RBSIM_BINOP(Bis, a | b)
        RBSIM_BINOP(Xor, a ^ b)
        RBSIM_BINOP(Bic, a & ~b)
        RBSIM_BINOP(Ornot, a | ~b)
        RBSIM_BINOP(Eqv, a ^ ~b)
        RBSIM_BINOP(Sll, a << (b & 63))
        RBSIM_BINOP(Srl, a >> (b & 63))
        RBSIM_BINOP(Sra,
                    static_cast<Word>(static_cast<SWord>(a) >> (b & 63)))
        RBSIM_BINOP(CmpEq, a == b)
        RBSIM_BINOP(CmpLt,
                    static_cast<SWord>(a) < static_cast<SWord>(b))
        RBSIM_BINOP(CmpLe,
                    static_cast<SWord>(a) <= static_cast<SWord>(b))
        RBSIM_BINOP(CmpUlt, a < b)
        RBSIM_BINOP(CmpUle, a <= b)
        RBSIM_BINOP(Ctlz, clz64(a))
        RBSIM_BINOP(Cttz, ctz64(a))
        RBSIM_BINOP(Ctpop, popcount64(a))
        RBSIM_BINOP(Extbl, (a >> (8 * (b & 7))) & 0xff)
        RBSIM_BINOP(Extwl, (a >> (8 * (b & 7))) & 0xffff)
        RBSIM_BINOP(Extll, (a >> (8 * (b & 7))) & 0xffffffffull)
        RBSIM_BINOP(Insbl, (a & 0xff) << (8 * (b & 7)))
        RBSIM_BINOP(Mskbl, a & ~(Word{0xff} << (8 * (b & 7))))
        RBSIM_BINOP(Zapnot, a & detail::zapnotByteMask(b))
        RBSIM_BINOP(DivT,
                    static_cast<SWord>(b) == 0 ? Word{0} : a / (b | 1))

        RBSIM_CMOV(CmovEq, a == 0)
        RBSIM_CMOV(CmovNe, a != 0)
        RBSIM_CMOV(CmovLt, static_cast<SWord>(a) < 0)
        RBSIM_CMOV(CmovGe, static_cast<SWord>(a) >= 0)
        RBSIM_CMOV(CmovLe, static_cast<SWord>(a) <= 0)
        RBSIM_CMOV(CmovGt, static_cast<SWord>(a) > 0)
        RBSIM_CMOV(CmovLbs, a & 1)
        RBSIM_CMOV(CmovLbc, !(a & 1))

        RBSIM_CASE(Lda)
        {
            const Word v = R[d->rb] + d->k;
            R[d->rd] = v;
            sink.regWrite(d->rd, v);
            RBSIM_NEXT();
        }
        RBSIM_CASE(Const)
        {
            const Word v = d->k;
            R[d->rd] = v;
            sink.regWrite(d->rd, v);
            RBSIM_NEXT();
        }

        RBSIM_CASE(Ld8)
        {
            const Addr ea = (R[d->rb] + d->k) & ~Addr{7};
            const Word v = M->loadAligned<8>(ea);
            R[d->rd] = v;
            sink.regWrite(d->rd, v);
            sink.load(ea, v);
            RBSIM_NEXT();
        }
        RBSIM_CASE(Ld4)
        {
            const Addr ea = (R[d->rb] + d->k) & ~Addr{3};
            const Word v = detail::sext32(M->loadAligned<4>(ea));
            R[d->rd] = v;
            sink.regWrite(d->rd, v);
            sink.load(ea, v);
            RBSIM_NEXT();
        }
        RBSIM_CASE(St8)
        {
            const Addr ea = (R[d->rb] + d->k) & ~Addr{7};
            const Word v = R[d->ra];
            M->storeAligned<8>(ea, v);
            sink.store(ea, v);
            RBSIM_NEXT();
        }
        RBSIM_CASE(St4)
        {
            const Addr ea = (R[d->rb] + d->k) & ~Addr{3};
            const Word v = R[d->ra] & 0xffffffffull;
            M->storeAligned<4>(ea, v);
            sink.store(ea, v);
            RBSIM_NEXT();
        }

        RBSIM_CONDBR(Beq, a == 0)
        RBSIM_CONDBR(Bne, a != 0)
        RBSIM_CONDBR(Blt, static_cast<SWord>(a) < 0)
        RBSIM_CONDBR(Bge, static_cast<SWord>(a) >= 0)
        RBSIM_CONDBR(Ble, static_cast<SWord>(a) <= 0)
        RBSIM_CONDBR(Bgt, static_cast<SWord>(a) > 0)
        RBSIM_CONDBR(Blbs, (a & 1) != 0)
        RBSIM_CONDBR(Blbc, (a & 1) == 0)

        RBSIM_CASE(Br)
        {
            R[d->rd] = d->k; // return address (or scratch)
            sink.regWrite(d->rd, d->k);
            sink.br();
            RBSIM_NEXT_AT(d->target);
        }
        RBSIM_CASE(Bsr)
        {
            R[d->rd] = d->k;
            sink.regWrite(d->rd, d->k);
            sink.bsr(d->k);
            RBSIM_NEXT_AT(d->target);
        }
        RBSIM_CASE(JmpRet)
        {
            const Word t = R[d->rb];
            R[d->rd] = d->k;
            sink.regWrite(d->rd, d->k);
            if (t < cb || t - cb >= code_bytes || (t & 3) != 0) {
                cx.pc = pc;
                cx.steps += max_steps - left; // this step uncounted
                throwBadJmp(*cx.dp, pc, t);
            }
            const std::uint64_t np = (t - cb) >> 2;
            sink.jmpRet();
            RBSIM_NEXT_AT(np);
        }
        RBSIM_CASE(JmpCall)
        {
            const Word t = R[d->rb];
            R[d->rd] = d->k;
            sink.regWrite(d->rd, d->k);
            if (t < cb || t - cb >= code_bytes || (t & 3) != 0) {
                cx.pc = pc;
                cx.steps += max_steps - left; // this step uncounted
                throwBadJmp(*cx.dp, pc, t);
            }
            const std::uint64_t np = (t - cb) >> 2;
            sink.jmpCall(pc, np, d->k);
            RBSIM_NEXT_AT(np);
        }

        RBSIM_CASE(Nop) { RBSIM_NEXT(); }
        RBSIM_CASE(Halt)
        {
            // HALT leaves the pc on itself (the reference's
            // rec.nextPc == pcIndex) and counts as one step.
            cx.halted = true;
            sink.halt();
            --left;
            goto L_out;
        }
    }
    // Every case re-dispatches or exits; reaching here means a corrupt
    // handler id.
    std::abort();

L_out: {
    const std::uint64_t done = max_steps - left;
    cx.pc = pc;
    cx.steps += done;
    return done;
}

#undef RBSIM_BINOP
#undef RBSIM_CMOV
#undef RBSIM_CONDBR
#undef RBSIM_NEXT
#undef RBSIM_NEXT_AT
#undef RBSIM_CASE
#undef RBSIM_TGOTO
}

/** Run the loop with the process-selected dispatch strategy. */
template <class Sink>
inline std::uint64_t
execDecoded(ExecCtx &cx, std::uint64_t max_steps, Sink &sink)
{
#if RBSIM_HAS_COMPUTED_GOTO
    if (threadedDispatchEnabled())
        return execDecodedLoop<true>(cx, max_steps, sink);
#endif
    return execDecodedLoop<false>(cx, max_steps, sink);
}

} // namespace rbsim

#endif // RBSIM_FUNC_PREDECODE_HH
