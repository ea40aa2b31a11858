/**
 * @file
 * The simulation service: a fixed pool of worker threads fed through the
 * shared WorkQueue, with a bounded LRU result cache in front
 * (docs/SERVING.md).
 *
 * This is the one execution path behind every parallel sweep: the bench
 * binaries submit their grids here (in-process), and rbsim-serve's
 * JSON-lines front end submits parsed requests here. Each worker keeps
 * one Simulator per configuration it has run. Every job builds a fresh
 * machine on it; what the kept Simulator saves is its program binding:
 * a program equal in content to the last one keeps its copy and hash,
 * so a sampling campaign's windows never re-hash the image. Copies of a
 * Program share its image pages, so a JobSpec copy never copies data.
 */

#ifndef RBSIM_SERVE_SERVICE_HH
#define RBSIM_SERVE_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/work_queue.hh"
#include "sim/simulator.hh"

namespace rbsim::serve
{

/** One unit of work: a fully resolved (config, program, options) job. */
struct JobSpec
{
    MachineConfig cfg; //!< scheduler knobs already applied
    Program prog;
    SimOptions opts;
    //! Skip the result cache entirely (lookup and insert). Set for
    //! traced/profiled cells, which must actually execute to produce
    //! their side artifacts.
    bool bypassCache = false;
    //! Keep a worker-local ring of the last N instructions and ship it
    //! in JobOutcome::traceDump when the run aborts, so a served job's
    //! abort carries the same diagnostics a local run prints. 0 attaches
    //! no ring.
    unsigned traceLast = 0;
};

/** What a job produced. */
struct JobOutcome
{
    bool ok = false;
    std::string error; //!< exception text when !ok (cosim mismatch, ...)
    bool cacheHit = false;
    //! The run executed but stopped without HALT or an instruction
    //! budget: watchdog deadlock or cycle-budget exhaustion. `result`
    //! still holds the stats up to the stop.
    bool aborted = false;
    std::string abortKind; //!< "watchdog-deadlock" | "cycle-budget"
    std::uint64_t deadlockAborts = 0; //!< core.deadlockAborts at stop
    //! O3PipeView dump of the last JobSpec::traceLast instructions
    //! (aborted runs with traceLast > 0 only).
    std::string traceDump;
    SimResult result;
};

/** The service. */
class SimService
{
  public:
    struct Options
    {
        unsigned workers = 0;          //!< 0 = WorkQueue::defaultThreads()
        std::size_t cacheCapacity = 256; //!< result-cache entries (LRU)
    };

    SimService();
    explicit SimService(const Options &opts);

    unsigned workers() const { return queue.workers(); }

    /**
     * The result-cache identity of a job: configKey (every MachineConfig
     * field, scheduler knobs included) + program name + Program::hash()
     * (through programHash()) + SimOptions::resultKey(), which
     * canonicalizes EVERY result-affecting option field
     * (tests/test_serve.cc guards that new SimOptions fields revisit
     * resultKey).
     */
    std::string cacheKeyFor(const JobSpec &spec) const;

    /**
     * Program::hash() of `prog`, remembered for the last program keyed:
     * a campaign's windows, or a request keyed by the server and then
     * submitted, carry one program, so only the first of them hashes.
     * The remembered program is matched by exact content
     * (Program::sameContent), never by pointer or name. Safe to call
     * from several threads.
     */
    std::uint64_t programHash(const Program &prog) const;

    /**
     * Submit one job. `done` runs exactly once — synchronously on the
     * calling thread for a cache hit, on a worker thread otherwise.
     * Borrowed pointers inside spec.opts (tracer, profiler) must outlive
     * the callback.
     */
    void submit(JobSpec spec, std::function<void(JobOutcome)> done);

    /**
     * Run a whole grid, preserving order. Identical cacheable specs are
     * coalesced: only the first occurrence executes, the rest are marked
     * cacheHit and copy its outcome.
     */
    std::vector<JobOutcome> runBatch(std::vector<JobSpec> specs);

    /** Block until every submitted job has completed. */
    void wait() { queue.wait(); }

    /** Service-wide telemetry (the serve summary line). */
    struct Counters
    {
        std::uint64_t cacheHits = 0;
        std::uint64_t cacheMisses = 0;
        std::uint64_t jobsExecuted = 0;
        //! Simulators the workers hold: one per (worker, configuration).
        std::uint64_t warmSimulators = 0;
    };

    Counters counters() const;

    /**
     * The process-wide instance every bench binary submits through
     * (default worker count, default cache). Constructed on first use.
     */
    static SimService &instance();

  private:
    /** Get or build the worker's Simulator for a configuration. */
    Simulator &simulatorFor(unsigned worker, const MachineConfig &cfg,
                            const std::string &config_key);

    /** Cache lookup; fills `out` and returns true on a hit. */
    bool cacheLookup(const std::string &key, SimResult &out);
    void cacheInsert(const std::string &key, const SimResult &result);

    WorkQueue queue;

    //! Per-worker simulators, keyed by configKey. Each map is only ever
    //! touched by its own worker thread — no locking on the simulation
    //! path.
    std::vector<std::map<std::string, std::unique_ptr<Simulator>>> sims;

    //! The last program programHash() hashed, with its hash. Replaced
    //! whole under keyedMu and compared outside it.
    struct KeyedProgram
    {
        Program prog;
        std::uint64_t hash;
    };
    mutable std::mutex keyedMu;
    mutable std::shared_ptr<const KeyedProgram> lastKeyed;

    // Result cache: LRU list of (key, result) with an index into it.
    mutable std::mutex cacheMu;
    std::size_t cacheCapacity;
    std::list<std::pair<std::string, SimResult>> lru;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, SimResult>>::iterator>
        cacheIndex;

    std::atomic<std::uint64_t> cacheHits{0};
    std::atomic<std::uint64_t> cacheMisses{0};
    std::atomic<std::uint64_t> jobsExecuted{0};
    std::atomic<std::uint64_t> simCount{0};
};

} // namespace rbsim::serve

#endif // RBSIM_SERVE_SERVICE_HH
