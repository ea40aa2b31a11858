/**
 * @file
 * The rbsim-serve front end: request-line handling, duplicate tracking,
 * and the stdio JSON-lines serving loop (docs/SERVING.md).
 *
 * The Server owns a SimService and turns protocol lines into jobs. One
 * thread feeds handleLine(); responses come back through the sink from
 * worker threads (or synchronously for cache hits and errors), so the
 * sink is serialized internally. Every failure is a structured per-job
 * error record — a bad request never takes the server down.
 */

#ifndef RBSIM_SERVE_SERVER_HH
#define RBSIM_SERVE_SERVER_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "serve/protocol.hh"
#include "serve/sampled.hh"
#include "serve/service.hh"

namespace rbsim::serve
{

/** The server. */
class Server
{
  public:
    struct Options
    {
        SimService::Options service;
        //! Reject programs above this many static instructions
        //! (OversizedProgram) — a cheap denial-of-service guard.
        std::size_t maxProgramInsts = 1u << 20;
        //! Reject workload requests above this scale factor (the build
        //! cost and dynamic length grow linearly with it).
        unsigned maxScale = 10000;
        //! Ring size for abort diagnostics: served jobs keep a
        //! worker-local trace of the last N instructions and ship it in
        //! the sim-aborted record, matching what a local run prints.
        //! 0 disables the ring.
        unsigned traceLast = 64;
    };

    /** `sink` receives one response line per job (no newline). It is
     *  called under an internal mutex, possibly from worker threads. */
    Server(const Options &opts, std::function<void(const std::string &)> sink);

    /**
     * Handle one request line (empty/whitespace lines are ignored).
     * Immediate failures emit an error record before returning;
     * accepted jobs respond asynchronously.
     */
    void handleLine(const std::string &line);

    /** Block until every accepted job has responded. */
    void drain() { service.wait(); }

    SimService &simService() { return service; }

    /** Jobs that responded ok / with an error record. */
    std::uint64_t jobsOk() const { return okCount; }
    std::uint64_t jobsFailed() const { return failCount; }

  private:
    void emit(const std::string &line);
    void finishJob(const std::string &id, const std::string &key,
                   const std::vector<std::string> &stat_select,
                   const JobOutcome &outcome);
    void finishSampled(const std::string &id, const std::string &key,
                       const std::vector<std::string> &stat_select,
                       const SampledOutcome &outcome);

    Options opts;
    SimService service;
    std::function<void(const std::string &)> sink;
    std::mutex sinkMu;

    // Request-tracking state. handleLine runs on one thread, but
    // completion callbacks mutate inFlight from workers.
    std::mutex stateMu;
    std::unordered_set<std::string> usedIds;
    std::unordered_map<std::string, std::string> inFlight; //!< key -> id
    std::uint64_t okCount = 0;
    std::uint64_t failCount = 0;
};

/**
 * Serve JSON-lines on stdin/stdout until EOF, then drain and print a
 * summary (jobs, cache hits, warm simulators) to stderr.
 * Returns a process exit code.
 */
int serveStdio(const Server::Options &opts);

} // namespace rbsim::serve

#endif // RBSIM_SERVE_SERVER_HH
