/**
 * @file
 * SMARTS-style systematic sampling: alternate cheap functional
 * fast-forward (with cache/predictor warming, src/sim/fastfwd.hh) with
 * short detailed windows, and report mean IPC with a 95% confidence
 * interval instead of simulating every instruction in detail.
 *
 * The functional model advances through the WHOLE program; detailed
 * windows run "on the side" from checkpoints captured at each sampling
 * point. That makes the windows independent of one another — they can
 * run sequentially here or be sharded across the serve worker pool
 * (src/serve/sampled.hh) with identical results.
 *
 * Methodology, bias sources, and CI interpretation: docs/EXPERIMENTS.md.
 */

#ifndef RBSIM_SIM_SAMPLING_HH
#define RBSIM_SIM_SAMPLING_HH

#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hh"

namespace rbsim
{

/** Sampling regimen. Window k starts at dynamic-instruction position
 * skipInsts + k * periodInsts; keep periodInsts >= warmupInsts +
 * measureInsts so measured windows never overlap. */
struct SamplingOptions
{
    std::uint64_t skipInsts = 0;      //!< initialization skip
    std::uint64_t periodInsts = 50'000; //!< sampling period U
    std::uint64_t warmupInsts = 2'000;  //!< detailed pipeline warmup/window
    std::uint64_t measureInsts = 10'000; //!< measured instructions/window
    std::uint64_t maxWindows = 0;     //!< cap (0 = to program end)
    Cycle maxCyclesPerWindow = 10'000'000; //!< per detailed leg
    bool cosim = true; //!< lockstep-verify the detailed windows
};

/** What a sampling campaign produces. */
struct SampledResult
{
    std::string machine;
    std::string workload;
    std::uint64_t windows = 0;   //!< detailed windows simulated
    std::uint64_t ffInsts = 0;   //!< functional instructions executed
    bool completed = false;      //!< functional model reached HALT
    double ipcMean = 0.0;        //!< mean of per-window IPCs
    double ipcCi95 = 0.0;        //!< 95% CI half-width of that mean
    double hostSeconds = 0.0;    //!< wall clock, fast-forward included
    std::vector<double> windowIpc; //!< per-window IPC, in stream order
    //! Counters/vectors summed across measured windows, with the derived
    //! formulas (core.ipc, missRates, ...; deriveFormulas) computed from
    //! the sums. Describes the sampled subset, not the program.
    StatSnapshot merged;
};

/** Where a campaign's fast-forward pass ended. */
struct FastForwardEnd
{
    std::uint64_t ffInsts = 0; //!< functional instructions executed
    bool completed = false;    //!< the functional model reached HALT
};

/**
 * The fast-forward/capture loop behind every campaign: one functional
 * pass over `prog` that hands the checkpoint of each sampling point of
 * `opts` to `on_point` as soon as it is captured — in stream order, on
 * the calling thread — so its detailed window can run while the pass
 * goes on. Without a window cap the pass runs to the end of the
 * program, so ffInsts is the true stream length. An exception from the
 * pass (InterpError: a JMP to a non-code address) propagates after the
 * points already handed out.
 */
FastForwardEnd sampleCheckpoints(
    const MachineConfig &cfg, const Program &prog,
    const SamplingOptions &opts,
    const std::function<void(std::shared_ptr<const ArchCheckpoint>)>
        &on_point);

/**
 * sampleCheckpoints() collected into a vector. Optionally reports the
 * functional instruction count reached and whether the program
 * completed.
 */
std::vector<std::shared_ptr<const ArchCheckpoint>>
collectCheckpoints(const MachineConfig &cfg, const Program &prog,
                   const SamplingOptions &opts,
                   std::uint64_t *ff_insts = nullptr,
                   bool *completed = nullptr);

/** The options of one detailed window of `opts` (resume point unset). */
SimOptions windowOptions(const SamplingOptions &opts);

/** 95% CI half-width of the mean of `xs` (Student t for small samples;
 * 0 for fewer than two samples). */
double ci95HalfWidth(const std::vector<double> &xs);

/** Element-wise accumulate one measured window's counters/vectors into
 * `into`. Once all windows are in, deriveFormulas(into) sets the
 * merged ratios — ratios of sums, not means of ratios. */
void accumulateWindowStats(StatSnapshot &into, const StatSnapshot &win);

/**
 * Run a whole sampling campaign in-process: each detailed window runs
 * on one Simulator, bound once to the program, as soon as its
 * checkpoint is captured, and the windows merge in stream order.
 * Throws CosimMismatch if any window diverges (cosim enabled).
 */
SampledResult simulateSampled(const MachineConfig &cfg,
                              const Program &prog,
                              const SamplingOptions &opts);

} // namespace rbsim

#endif // RBSIM_SIM_SAMPLING_HH
