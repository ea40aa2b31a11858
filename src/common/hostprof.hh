/**
 * @file
 * Opt-in host-side (wall-clock) per-stage profiler for the simulator's
 * own speed (docs/PERFORMANCE.md). Attached to an OooCore like a
 * tracer; the core's one cycle loop wraps each stage in a StageTimer,
 * so when absent each timer pays two predicted branches (a null check
 * on entry and on exit) and reads no clock.
 *
 * Stage accounting is hierarchical, not partitioned: `exec`, `kernel`
 * and `lsq` time is spent inside `select`, and `cosim` inside `commit`
 * — the fine-grained rows name where `select`/`commit` time actually
 * goes. `kernel` and `exec` split the execute calls between them:
 * `kernel` times those that take the redundant binary datapath (an
 * RB-input instruction on an RB machine), `exec` the rest.
 */

#ifndef RBSIM_COMMON_HOSTPROF_HH
#define RBSIM_COMMON_HOSTPROF_HH

#include <array>
#include <chrono>
#include <cstdint>

namespace rbsim
{

/** Per-stage wall-time accumulator. */
class HostProfiler
{
  public:
    enum Stage : unsigned
    {
        Fetch = 0, //!< FetchEngine::fetchCycle + front-pipe fill
        Dispatch,  //!< rename + dispatch (doDispatch)
        Select,    //!< wakeup drain + select scan (includes exec/kernel/lsq)
        Exec,      //!< executeInst off the RB datapath (subset of Select)
        Lsq,       //!< load disambiguation/search (subset of Select)
        Kernel,    //!< executeInst on the RB datapath (subset of Select)
        Commit,    //!< retirement (includes Cosim)
        Cosim,     //!< retire hook / lockstep checker (subset of Commit)
        Flush,     //!< pending-flush scan + squash walks
        NumStages,
    };

    using clock = std::chrono::steady_clock;

    static const char *
    stageName(unsigned s)
    {
        static constexpr const char *names[NumStages] = {
            "fetch", "dispatch", "select", "exec",  "lsq",
            "kernel", "commit",  "cosim",  "flush",
        };
        return s < NumStages ? names[s] : "?";
    }

    void add(Stage s, clock::duration d) { acc[s] += d; }

    double
    seconds(unsigned s) const
    {
        return std::chrono::duration<double>(acc[s]).count();
    }

    //! Heap allocations observed across the run (0 unless the counting
    //! allocator is linked; see common/alloccount.hh).
    std::uint64_t allocations = 0;
    bool allocationsCounted = false;

  private:
    std::array<clock::duration, NumStages> acc{};
};

/** RAII stage timer; inert when the profiler pointer is null. */
class StageTimer
{
  public:
    StageTimer(HostProfiler *p, HostProfiler::Stage s)
        : prof(p), stage(s)
    {
        if (prof)
            start = HostProfiler::clock::now();
    }

    ~StageTimer()
    {
        if (prof)
            prof->add(stage, HostProfiler::clock::now() - start);
    }

    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

  private:
    HostProfiler *prof;
    HostProfiler::Stage stage;
    HostProfiler::clock::time_point start;
};

} // namespace rbsim

#endif // RBSIM_COMMON_HOSTPROF_HH
