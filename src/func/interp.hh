/**
 * @file
 * Functional reference interpreter — the architectural golden model.
 *
 * Executes a program one instruction at a time in pure two's complement.
 * The timing simulator runs this model in lockstep at retirement and
 * cross-checks every register write, memory write, and control transfer
 * (co-simulation), which is what validates the redundant binary datapath
 * end to end.
 *
 * Two implementations live behind one architectural contract:
 *
 *  - `step()` / `run*()` execute the program's predecoded form
 *    (func/predecode.hh) with threaded dispatch and the direct-page
 *    memory fast path — the production paths;
 *  - `stepReference()` is the original decode-every-step implementation,
 *    kept verbatim as the oracle. tests/test_predecode.cc locksteps the
 *    two over the whole fuzz corpus and every workload-generator preset
 *    and requires bit-equal StepRecords under both dispatch strategies.
 *
 * A JMP to an address outside the code image raises InterpError
 * (func/predecode.hh) from every path, in every build type.
 */

#ifndef RBSIM_FUNC_INTERP_HH
#define RBSIM_FUNC_INTERP_HH

#include <vector>

#include "func/mem_image.hh"
#include "func/predecode.hh"
#include "isa/eval.hh"
#include "isa/program.hh"

namespace rbsim
{

/** What one architectural step did (consumed by the co-sim checker). */
struct StepRecord
{
    std::uint64_t pcIndex = 0;  //!< instruction index executed
    Inst inst;                  //!< the instruction
    bool wroteReg = false;      //!< wrote an integer register
    unsigned archReg = zeroReg; //!< which register
    Word regValue = 0;          //!< value written
    bool wroteMem = false;      //!< was a store
    bool readMem = false;       //!< was a load
    Addr memAddr = 0;           //!< load/store address (aligned)
    Word memValue = 0;          //!< store value (after size truncation)
    bool taken = false;         //!< control transfer taken
    std::uint64_t nextPc = 0;   //!< next instruction index
    bool halted = false;        //!< this step executed HALT

    //! Field-wise equality (the predecode parity tests compare records
    //! from the two implementations bit-for-bit).
    bool operator==(const StepRecord &other) const = default;
};

/** The interpreter. */
class Interp
{
  public:
    /** Bind to a program (which must outlive the interpreter), hashing
     * it; loads its data segments into a fresh memory. */
    explicit Interp(const Program &prog);

    /**
     * Bind to `prog`, whose Program::hash() the caller already knows
     * (`prog_hash`): entry PC, registers zeroed. With `pages` (a
     * checkpoint's), memory starts as those pages, shared copy-on-write,
     * and the program's data image is never built — set the
     * checkpoint's registers and PC next. The predecoded form comes
     * from the process-wide cache.
     */
    Interp(const Program &prog, std::uint64_t prog_hash,
           const MemImage::PageMap *pages = nullptr);

    /** True once HALT has executed or the PC ran off the code. */
    bool halted() const { return isHalted; }

    /**
     * Execute one instruction via the predecoded program, materializing
     * the full co-simulation record. Bit-identical to stepReference().
     * @pre !halted()
     */
    StepRecord step();

    /**
     * The original interpreter step — re-decodes through evalOp every
     * time. Kept as the oracle the predecoded paths are differentially
     * tested against. @pre !halted()
     */
    StepRecord stepReference();

    /** Run until halted or `max_steps` instructions; returns steps run.
     * Record-free (alias of runFast). */
    std::uint64_t run(std::uint64_t max_steps) { return runFast(max_steps); }

    /**
     * Record-free execution of up to `max_steps` instructions: the
     * threaded-dispatch loop touching only registers, memory, and the
     * pc — the `sim/fastfwd` engine and anything else that does not
     * need StepRecords should use this. Returns instructions executed.
     */
    std::uint64_t
    runFast(std::uint64_t max_steps)
    {
        NullExecSink sink;
        return runSink(max_steps, sink);
    }

    /**
     * Like runFast but reporting execution events (memory touches,
     * branch outcomes, calls/returns) to `sink` — see NullExecSink for
     * the hook set. FastForward's warming sink plugs in here.
     */
    template <class Sink>
    std::uint64_t
    runSink(std::uint64_t max_steps, Sink &sink)
    {
        ExecCtx cx;
        cx.regs = xregs.data();
        cx.mem = &memory;
        cx.dp = dec.get();
        cx.pc = pcIndex;
        cx.halted = isHalted;
        std::uint64_t done = 0;
        try {
            done = execDecodedLoop(cx, max_steps, sink);
        } catch (...) {
            // InterpError from a bad JMP: the handler synced pc/steps
            // before throwing, so the interpreter stays inspectable
            // (pc on the faulting instruction, its step uncounted).
            pcIndex = cx.pc;
            steps += cx.steps;
            isHalted = cx.halted;
            throw;
        }
        pcIndex = cx.pc;
        steps += cx.steps;
        isHalted = cx.halted;
        return done;
    }

    /** Architectural register value. */
    Word
    reg(unsigned r) const
    {
        assert(r < numArchRegs);
        return r == zeroReg ? 0 : xregs[r];
    }

    /** Set an architectural register (test setup). */
    void
    setReg(unsigned r, Word v)
    {
        assert(r < numArchRegs);
        if (r != zeroReg)
            xregs[r] = v;
    }

    /** Current PC (instruction index). */
    std::uint64_t pc() const { return pcIndex; }

    /** Move the PC (checkpoint restore). A PC off the end of the code
     * image is the run-off-the-end halt state, same as after step(). */
    void
    setPc(std::uint64_t pc_index)
    {
        pcIndex = pc_index;
        isHalted = pc_index >= program->code.size();
    }

    /** The memory image. */
    MemImage &mem() { return memory; }
    const MemImage &mem() const { return memory; }

    /** Instructions executed so far. */
    std::uint64_t instsExecuted() const { return steps; }

    /** The predecoded form this interpreter executes (tests/bench). */
    const DecodedProgram &decoded() const { return *dec; }

  private:
    //! Pointer, not reference, so an Interp stays assignable. Never
    //! null.
    const Program *program;
    std::shared_ptr<const DecodedProgram> dec;
    MemImage memory;
    //! Register-file slots: arch regs + literal pool + scratch (see
    //! func/predecode.hh for the layout contract).
    std::vector<Word> xregs;
    std::uint64_t pcIndex = 0;
    std::uint64_t steps = 0;
    bool isHalted = false;
};

} // namespace rbsim

#endif // RBSIM_FUNC_INTERP_HH
