/**
 * @file
 * Functional fast-forward: drive the predecoded threaded-dispatch
 * interpreter loop (func/predecode.hh) through a warming event sink at
 * tens of MIPS while warming the same cache tag arrays and
 * branch-predictor state a detailed run would touch, so an
 * ArchCheckpoint captured here
 * drops a detailed window into representative microarchitectural
 * context (the SMARTS functional-warming discipline).
 *
 * Warming mirrors the pipeline's architectural-path behavior exactly:
 * instruction lines touch the IL1 on line change (FetchEngine's lastLine
 * discipline), loads/stores walk DL1 -> L2 with write-allocate,
 * conditional branches fold predict-index/speculate/update into one
 * touch, BSR/indirect-JMP push the RAS, returns pop it, and indirect
 * JMPs train the BTB at their architectural target. What is *not*
 * modeled is wrong-path pollution and the in-flight fetch-to-retire
 * window — the standard functional-warming approximation, quantified in
 * docs/PERFORMANCE.md.
 */

#ifndef RBSIM_SIM_FASTFWD_HH
#define RBSIM_SIM_FASTFWD_HH

#include "core/machine_config.hh"
#include "frontend/branch_pred.hh"
#include "func/interp.hh"
#include "mem/hierarchy.hh"
#include "sim/checkpoint.hh"

namespace rbsim
{

/**
 * The functional fast-forward engine. It only moves forward, from the
 * program entry: a campaign captures each sampling point's checkpoint
 * from one pass, and the detailed windows resume from those
 * (SimOptions::startFrom), never the engine.
 */
class FastForward
{
  public:
    /** Bind to a machine (cache geometry) and a program, at the program
     * entry with cold caches and predictor and memory sharing the
     * program's image. The program must outlive the engine; the
     * configuration is copied. */
    FastForward(const MachineConfig &cfg, const Program &prog);

    /**
     * Execute up to `max_insts` architectural instructions, warming
     * caches and predictor along the way.
     * @return instructions actually executed (short on HALT)
     */
    std::uint64_t run(std::uint64_t max_insts);

    /** True once the program halted (HALT or ran off the code). */
    bool halted() const { return interp.halted(); }

    /** Architectural instructions executed since the program entry. */
    std::uint64_t instsExecuted() const { return insts; }

    /** Capture the current point as a checkpoint. @pre !halted() */
    void capture(ArchCheckpoint &out) const;

    /** The reference interpreter (tests compare architectural state). */
    const Interp &ref() const { return interp; }

  private:
    MachineConfig cfg;
    const Program &program;
    Interp interp;
    MemHierarchy warmMem;
    HybridPredictor predictor;
    Btb btb;
    Ras ras;
    Addr lastLine = ~Addr{0};
    std::uint64_t insts = 0;
};

} // namespace rbsim

#endif // RBSIM_SIM_FASTFWD_HH
