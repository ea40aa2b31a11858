/**
 * @file
 * Sharded sampling campaigns: run one long workload's SMARTS windows
 * (src/sim/sampling.hh) across the SimService worker pool.
 *
 * Because the functional model carries all inter-window state, every
 * detailed window is an independent (checkpoint -> warmup -> measure)
 * job; sharding them across workers is embarrassingly parallel and
 * bit-reproducible: window results are accumulated in stream order, so
 * a sharded campaign merges to exactly the in-process
 * simulateSampled() numbers regardless of completion order (pinned by
 * tests/test_sampling.cc).
 */

#ifndef RBSIM_SERVE_SAMPLED_HH
#define RBSIM_SERVE_SAMPLED_HH

#include "serve/service.hh"
#include "sim/sampling.hh"

namespace rbsim::serve
{

/** What a sharded campaign delivers to its completion callback. */
struct SampledOutcome
{
    bool ok = false;
    std::string error; //!< first failing window's error (!ok)
    //! Set with `error` when a window stopped on the watchdog or cycle
    //! budget rather than throwing.
    bool aborted = false;
    SampledResult result;
};

/**
 * Fast-forward `prog` on the calling thread and submit each detailed
 * window to `service` as soon as its checkpoint is captured, so the
 * workers simulate while the pass goes on; windows merge in stream
 * order. `done` runs exactly once, after the pass has ended and every
 * window has completed, on whichever thread gets there last: the worker
 * finishing the last window, or the calling thread when every window
 * was done first (a zero-window program, or all cache hits). If the
 * pass throws (InterpError), the exception reaches the caller and
 * `done` never runs — windows already submitted finish on the workers
 * without touching it. Window results land in the service's result
 * cache keyed by checkpoint fingerprint, so repeating a campaign is
 * all cache hits.
 */
void submitSampled(SimService &service, const MachineConfig &cfg,
                   const Program &prog, const SamplingOptions &opts,
                   std::function<void(SampledOutcome)> done);

/** Blocking convenience: submitSampled + wait. */
SampledOutcome runSampled(SimService &service, const MachineConfig &cfg,
                          const Program &prog,
                          const SamplingOptions &opts);

} // namespace rbsim::serve

#endif // RBSIM_SERVE_SAMPLED_HH
