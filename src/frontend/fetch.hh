/**
 * @file
 * Fetch engine: up to 8 instructions / 2 basic blocks per cycle from a
 * pipelined instruction cache, with branch prediction at fetch (paper
 * Table 2).
 *
 * Direct branch targets are visible at fetch (instructions are stored
 * pre-decoded); the BTB predicts indirect-jump targets and the RAS
 * predicts returns (JMP with ra == r31 is the return idiom). A JMP with
 * no predicted target stalls fetch until it resolves.
 */

#ifndef RBSIM_FRONTEND_FETCH_HH
#define RBSIM_FRONTEND_FETCH_HH

#include <vector>

#include "common/ring.hh"
#include "frontend/branch_pred.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"

namespace rbsim
{

/** One fetched instruction with its prediction state. A control
 * instruction's predictor repair state travels separately, as a
 * BpSnapshot in the snapshot ring fetchCycle() fills. */
struct FetchedInst
{
    std::uint64_t pcIndex = 0;
    Inst inst;
    std::uint64_t predNextPc = 0;
    bool isCtrl = false;
    bool predTaken = false;
    bool stalledJmp = false;  //!< no predicted target; fetch stalled
};

// Every fetched instruction is copied into the fetch buffer and then
// the front pipe, and about two thirds of them are squashed; the
// 152-byte BpSnapshot of a control instruction therefore travels
// separately, and no other instruction carries one.
static_assert(sizeof(FetchedInst) <= 64, "keep FetchedInst small");

/** The fetch engine. */
class FetchEngine
{
  public:
    FetchEngine(const MachineConfig &cfg, const Program &prog,
                MemHierarchy &mem);

    /**
     * Fetch one cycle's worth of instructions, appending to the
     * caller-owned `out` (not cleared here; the core reuses one buffer
     * across cycles so the hot path never allocates). Each control
     * instruction also appends, in fetch order, the predictor state from
     * just before it was predicted to `snaps`; no other instruction
     * does. `snaps` must have room for fetchWidth more entries.
     * @return the number of instructions appended (may be 0)
     */
    unsigned fetchCycle(Cycle now, std::vector<FetchedInst> &out,
                        StaticRing<BpSnapshot> &snaps);

    /** Redirect after a branch resolution or squash. */
    void redirect(std::uint64_t pc_index, Cycle now);

    /**
     * Start fetching at `pc_index` instead of the program entry point
     * (checkpoint restore; call right after construction). A PC off the end
     * of the code image parks fetch, matching the functional model's
     * run-off-the-end halt.
     */
    void
    startAt(std::uint64_t pc_index)
    {
        fetchPc = pc_index;
        stopped = pc_index >= program.code.size();
        lastLine = ~Addr{0};
    }

    /** True when fetch is parked (HALT fetched, unpredicted JMP, or PC
     * off the end of the code). */
    bool parked() const { return stopped; }

    /** Cycle at which a stalled (icache miss / post-redirect) fetch can
     * next deliver instructions; earlier fetchCycle calls are inert.
     * Drives the core's idle-cycle skipping. */
    Cycle resumeAt() const { return resumeCycle; }

    /** The direction predictor (resolution/retire updates, repair). */
    HybridPredictor predictor;

    /** Indirect-target predictor. */
    Btb btb;

    /** Return address stack. */
    Ras ras;

    /** Fetch stall cycles due to instruction-cache misses (stats). */
    std::uint64_t icacheStallCycles = 0;

    /** Register fetch + branch predictor stats as root groups of
     * `reg`. */
    void
    registerStats(StatRegistry &reg) const
    {
        statGroup(reg, "fetch").counter(
            "icacheStallCycles", &icacheStallCycles,
            "fetch cycles lost to instruction-cache misses");
        predictor.registerStats(statGroup(reg, "bpred"));
    }

  private:
    const MachineConfig &config;
    const Program &program;
    MemHierarchy &memory;

    std::uint64_t fetchPc = 0;
    Cycle resumeCycle = 0;
    bool stopped = false;
    Addr lastLine = ~Addr{0};
};

} // namespace rbsim

#endif // RBSIM_FRONTEND_FETCH_HH
