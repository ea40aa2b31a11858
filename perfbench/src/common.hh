/**
 * @file
 * Shared pieces of the rbperf benchmark: run options, the span
 * recorder, provenance, and small statistics helpers.
 *
 * rbperf writes one raw JSON document per run; perfbench/run.py turns it
 * into metrics and checks the outputs (README.md).
 */

#ifndef RBPERF_COMMON_HH
#define RBPERF_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hostprof.hh"
#include "common/json.hh"
#include "common/stats.hh"
#include "core/machine_config.hh"
#include "isa/program.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace rbperf
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** What one rbperf invocation was asked to do. */
struct RunOptions
{
    std::uint64_t seed = 2002;
    double seconds = 15.0;  //!< length of the timed phase
    bool trace = false;     //!< add the traced phase and layer figures
    std::string spansPath;  //!< where the traced run writes its spans
    std::string requestsPath; //!< serve-jobs request lines, one a line
    std::size_t requestBlock = 1; //!< serve-jobs rounds end on a block
};

/**
 * In-memory span recorder. A span is one call into a layer, made from
 * the benchmark thread: name, start, end, parent span and request id
 * (cell, campaign/window or job). Spans of one parent never overlap, so
 * a span's self time is its duration minus the sum of its children's
 * (computed from the written file).
 */
class Spans
{
  public:
    static constexpr int noParent = -1;

    /** Open a span; returns its index. */
    int begin(const char *name, std::uint64_t request,
              int parent = noParent);
    void end(int id);

    /** Sum of durations of spans called `name`, in seconds. */
    double total(const std::string &name) const;
    /** Durations of every span called `name`, in seconds. */
    std::vector<double> durations(const std::string &name) const;

    /** Write every span as one JSON document (called once, at the end). */
    void write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        int parent;
        std::uint64_t request;
    };
    Clock::time_point epoch = Clock::now();
    std::vector<Span> spans;
};

/** RAII span around one call. */
class SpanScope
{
  public:
    SpanScope(Spans &s, const char *name, std::uint64_t request,
              int parent = Spans::noParent)
        : spans(s), id(s.begin(name, request, parent))
    {}
    ~SpanScope() { spans.end(id); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int index() const { return id; }

  private:
    Spans &spans;
    int id;
};

/**
 * The timed phases repeat identical passes and run.py takes each
 * operation's median over them, which needs at least three; after that,
 * passes continue until they have taken `seconds` in all.
 */
constexpr unsigned kMinPasses = 3;

inline bool
anotherPass(std::size_t done, double elapsed, double seconds)
{
    return done < kMinPasses || elapsed < seconds;
}

/**
 * One run of the host-speed reference, in seconds: a fixed computation
 * of the benchmark's own that no change to the simulator alters —
 * seeded random reads of a 256 KiB table with data-dependent branches,
 * about 12 ms. On a shared host a neighbour on the same core slows the
 * simulator by tens of percent for tens of seconds at a time and slows
 * this kernel alike, while a register-only loop barely moves. The timed
 * phases run it after every operation; run.py divides the operation
 * times by the run's median reference run (README.md, Noise).
 */
double referenceSeconds();

/** Compiler, build, backend, host and seed of this run. */
rbsim::Json provenance(const RunOptions &opts, unsigned workers);

/** ru_maxrss of this process in MB. */
double peakRssMb();

double median(std::vector<double> xs);

/** `v` as 16 hex digits. */
std::string hex(std::uint64_t v);

/** FNV-1a over every counter and vector of a snapshot, as hex. */
std::string snapshotDigest(const rbsim::StatSnapshot &s);

/** Baseline, RB-limited, RB-full and Ideal at `width`. */
std::vector<rbsim::MachineConfig> paperMachines(unsigned width);

/** simulator.ctor_ms (median construction) and simulator.reset_ms
 *  (median warm runInto with a 1-instruction budget) into `layers`. */
void simulatorCosts(const std::vector<rbsim::MachineConfig> &machines,
                    const std::vector<rbsim::Program> &progs,
                    rbsim::Json &layers);

/** workloads.build_ms: the median of one more build of each of `progs`
 *  by name with `wp`, into `layers`. */
void buildCost(const std::vector<rbsim::Program> &progs,
               const rbsim::WorkloadParams &wp, rbsim::Json &layers);

/**
 * The detailed jobs of a traced pass: the host profiler's stage times,
 * the model counts they pay for, and what the service adds to each job.
 * One profiler per machine label; with one worker, jobs never overlap.
 */
class CoreTally
{
  public:
    /** The profiler a job on machine `label` attaches. */
    rbsim::HostProfiler *
    profiler(const std::string &label)
    {
        return &prof[label];
    }

    /** A job that ran the detailed core, and its time in the service. */
    void add(const rbsim::SimResult &r, double job_secs);
    /** A job the service answered without the core (a cache hit). */
    void addHit(double job_secs) { serviceSecs += job_secs; }

    /**
     * core.<stage>_ns_per_cyc, core.select_ns_per_cyc.<machine>, the
     * model counts, service.overhead_ms, and core.share_pct and
     * service.share_pct of `pass_secs`, into `layers`.
     */
    void report(double pass_secs, rbsim::Json &layers) const;

  private:
    std::map<std::string, rbsim::HostProfiler> prof;
    std::map<std::string, std::uint64_t> cyclesOf;
    std::uint64_t cycles = 0, retired = 0, squashed = 0, fetched = 0,
                  holeWait = 0, dl1Miss = 0, dl1Acc = 0, condBr = 0,
                  condMiss = 0;
    std::vector<double> overhead; //!< job seconds minus core seconds
    double coreSecs = 0;
    double serviceSecs = 0;
};

/**
 * Shares (%) of a traced pass taken by the layers the benchmark calls
 * from its own thread — fastfwd, checkpoint, serve (parse and format)
 * and workloads (builds inside the pass) — and `ring_pct`, the abort
 * trace ring's share, into `layers`. A layer the workload never calls
 * has a share of 0.
 */
void spanShares(const Spans &spans, double pass_secs, double ring_pct,
                rbsim::Json &layers);

/**
 * Set-up is timed kSetupsPerPass times before every timed pass, so the
 * samples run.py takes the median of are spread over the run as the
 * passes are, not bunched at its start. Each repeat first destroys the
 * previous state with `teardown`, outside the clock; the state the last
 * `setup` builds is what the pass uses.
 */
constexpr unsigned kSetupsPerPass = 3;

template <class Setup, class Teardown>
void
timeSetups(std::vector<double> &secs, Setup &&setup, Teardown &&teardown)
{
    for (unsigned i = 0; i < kSetupsPerPass; ++i) {
        teardown();
        const auto t0 = Clock::now();
        setup();
        secs.push_back(secondsSince(t0));
    }
}

/** rbsim::Json array of doubles. */
rbsim::Json jsonArray(const std::vector<double> &xs);

// The three workloads. Each fills `out` with its raw results and
// returns the process exit code (0 also when operations failed — the
// failures are in `out` for run.py to count).
int runDetailedGrid(const RunOptions &opts, rbsim::Json &out);
int runSampledLong(const RunOptions &opts, rbsim::Json &out);
int runServeJobs(const RunOptions &opts, rbsim::Json &out);

/** Full-detail and sampled reference IPCs of the sampled-long
 *  campaigns, computed on every core (not a timed run). */
int generateSampledReferences(std::uint64_t seed, rbsim::Json &out);

} // namespace rbperf

#endif // RBPERF_COMMON_HH
