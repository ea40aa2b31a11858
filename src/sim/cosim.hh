/**
 * @file
 * Co-simulation checker: locksteps the functional reference interpreter
 * with the timing core's retirement stream and cross-checks every
 * architectural effect. This is what proves the redundant binary
 * datapath, the bypass/scheduling model, and misprediction recovery
 * preserve program semantics end to end.
 */

#ifndef RBSIM_SIM_COSIM_HH
#define RBSIM_SIM_COSIM_HH

#include <stdexcept>

#include "common/stats.hh"
#include "core/rob.hh"
#include "func/interp.hh"
#include "sim/checkpoint.hh"

namespace rbsim
{

/** Thrown when the timing core diverges from the reference. */
class CosimMismatch : public std::runtime_error
{
  public:
    explicit CosimMismatch(const std::string &what_arg,
                           std::uint64_t seq_ = 0,
                           std::uint64_t pc_index = 0)
        : std::runtime_error(what_arg), divergedSeq(seq_),
          divergedPc(pc_index)
    {}

    /** Sequence number of the diverging retired instruction (0 when the
     * divergence is not tied to one instruction). The fuzzer uses this to
     * rank failures when shrinking. */
    std::uint64_t seq() const { return divergedSeq; }

    /** Instruction index of the divergence. */
    std::uint64_t pcIndex() const { return divergedPc; }

  private:
    std::uint64_t divergedSeq;
    std::uint64_t divergedPc;
};

/** The checker. */
class CosimChecker
{
  public:
    /** Check `prog` (which must outlive the checker) from its entry,
     * hashing it. */
    explicit CosimChecker(const Program &prog)
        : CosimChecker(prog, prog.hash())
    {}

    /**
     * Check `prog`, whose Program::hash() is `prog_hash`. The reference
     * starts at the program entry sharing the program's image, or —
     * given `from`, a checkpoint of `prog` — at that checkpoint's
     * registers and PC sharing its pages; the timing core starts the
     * same way, so lockstep continues from the start point.
     */
    CosimChecker(const Program &prog, std::uint64_t prog_hash,
                 const ArchCheckpoint *from = nullptr)
        : interp(prog, prog_hash, from ? &from->pages : nullptr)
    {
        if (from) {
            for (unsigned r = 0; r < numArchRegs; ++r)
                interp.setReg(r, from->regs[r]);
            interp.setPc(from->pc);
        }
    }

    /**
     * Verify one retired instruction against one architectural step.
     * Throws CosimMismatch on any divergence.
     */
    void onRetire(const RobEntry &e);

    /** The reference interpreter (checkpoint capture reads the exact
     * retired architectural state from here). */
    const Interp &ref() const { return interp; }

    /** Instructions verified. */
    std::uint64_t checked() const { return count; }

    /** Bind checker stats into `g` (the "cosim" group). */
    void
    registerStats(StatGroup g) const
    {
        g.counter("checked", &count,
                  "retired instructions architecturally verified");
    }

  private:
    Interp interp;
    std::uint64_t count = 0;
};

} // namespace rbsim

#endif // RBSIM_SIM_COSIM_HH
