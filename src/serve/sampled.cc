#include "serve/sampled.hh"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>

namespace rbsim::serve
{

namespace
{

/**
 * Shared state of one campaign: the fast-forward thread registers
 * windows while workers complete them. Every member is guarded by `mu`,
 * and nothing under `mu` calls into the service or the caller.
 */
struct Campaign
{
    std::mutex mu;
    SampledOutcome out;
    //! Per-window results in STREAM order (not completion order), so
    //! the merge is deterministic.
    std::vector<double> ipcByWindow;
    std::vector<StatSnapshot> statsByWindow;
    std::size_t inFlight = 0; //!< registered windows not yet completed
    bool passEnded = false;   //!< the fast-forward pass has returned
    std::chrono::steady_clock::time_point t0;
    //! The caller's callback. Emptied when it runs, or when the pass
    //! throws — after which no window may reach the caller.
    std::function<void(SampledOutcome)> done;

    /** Register the next window; returns its stream index. */
    std::size_t
    addWindow()
    {
        std::lock_guard<std::mutex> lock(mu);
        ipcByWindow.push_back(0.0);
        statsByWindow.emplace_back();
        ++inFlight;
        return ipcByWindow.size() - 1;
    }

    /** Window `i` completed (on a worker, or on the submitting thread
     * for a cache hit). */
    void
    windowDone(std::size_t i, JobOutcome window)
    {
        std::unique_lock<std::mutex> lock(mu);
        if (!window.ok) {
            if (out.ok) {
                out.ok = false;
                out.error = window.error;
            }
        } else if (window.aborted) {
            if (out.ok) {
                out.ok = false;
                out.aborted = true;
                out.error = "sampling window " + std::to_string(i) +
                            " aborted (" + window.abortKind + ")";
            }
        } else {
            ipcByWindow[i] = window.result.ipc();
            statsByWindow[i] = std::move(window.result.stats);
        }
        --inFlight;
        finishIfLast(lock);
    }

    /** The pass returned: every window is registered. */
    void
    endPass(const FastForwardEnd &end)
    {
        std::unique_lock<std::mutex> lock(mu);
        out.result.ffInsts = end.ffInsts;
        out.result.completed = end.completed;
        passEnded = true;
        finishIfLast(lock);
    }

    /** The pass threw: drop `done` unrun. Windows still in flight
     * complete into this state and go no further. */
    void
    abandon()
    {
        std::function<void(SampledOutcome)> dropped;
        std::lock_guard<std::mutex> lock(mu);
        dropped.swap(done);
    }

    /** Once the pass has ended and no window is in flight: merge in
     * stream order, then run `done` with `mu` released. */
    void
    finishIfLast(std::unique_lock<std::mutex> &lock)
    {
        if (!passEnded || inFlight != 0 || !done)
            return;
        if (out.ok) {
            for (std::size_t i = 0; i < ipcByWindow.size(); ++i) {
                out.result.windowIpc.push_back(ipcByWindow[i]);
                accumulateWindowStats(out.result.merged,
                                      statsByWindow[i]);
                ++out.result.windows;
            }
            deriveFormulas(out.result.merged);
            out.result.ipcMean = arithmeticMean(out.result.windowIpc);
            out.result.ipcCi95 = ci95HalfWidth(out.result.windowIpc);
        }
        out.result.hostSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        std::function<void(SampledOutcome)> cb;
        cb.swap(done);
        SampledOutcome result = std::move(out);
        lock.unlock();
        cb(std::move(result));
    }
};

} // namespace

void
submitSampled(SimService &service, const MachineConfig &cfg,
              const Program &prog, const SamplingOptions &opts,
              std::function<void(SampledOutcome)> done)
{
    auto camp = std::make_shared<Campaign>();
    camp->t0 = std::chrono::steady_clock::now();
    camp->done = std::move(done);
    camp->out.ok = true;
    camp->out.result.machine = cfg.label;
    camp->out.result.workload = prog.name;

    JobSpec window;
    window.cfg = cfg;
    window.prog = prog;
    window.opts = windowOptions(opts);
    FastForwardEnd end;
    try {
        end = sampleCheckpoints(
            cfg, prog, opts,
            [&](std::shared_ptr<const ArchCheckpoint> ck) {
                const std::size_t i = camp->addWindow();
                JobSpec spec = window;
                spec.opts.startFrom = std::move(ck);
                service.submit(std::move(spec),
                               [camp, i](JobOutcome o) {
                                   camp->windowDone(i, std::move(o));
                               });
            });
    } catch (...) {
        camp->abandon();
        throw;
    }
    camp->endPass(end);
}

SampledOutcome
runSampled(SimService &service, const MachineConfig &cfg,
           const Program &prog, const SamplingOptions &opts)
{
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    SampledOutcome out;
    submitSampled(service, cfg, prog, opts, [&](SampledOutcome o) {
        std::lock_guard<std::mutex> lock(mu);
        out = std::move(o);
        ready = true;
        cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready; });
    return out;
}

} // namespace rbsim::serve
