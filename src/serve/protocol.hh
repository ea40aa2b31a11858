/**
 * @file
 * The rbsim-serve JSON-lines protocol (docs/SERVING.md).
 *
 * One request per input line, one response per job, order not
 * guaranteed (clients match on "id"). A request names its program
 * either as a registered workload ("workload" + "scale") or as TinyAlpha
 * assembly ("program"), and its machine either as a paper label/alias
 * ("machine" + "width") or as a full configuration object ("config",
 * the same shape configToJson emits — every MachineConfig field, so
 * ablation grids survive the wire).
 *
 * Responses are rbsim-bench-1 cells (machine/workload/ipc/host_ms/
 * sim_khz/stats) extended with the serve envelope: "schema"
 * ("rbsim-serve-1"), "id", "ok", "cache_hit", "halted". Failures are
 * structured per-job error records ({"ok": false, "code", "error"});
 * the server never dies on a bad request — the batch continues, the
 * same failure-isolation convention as rbsim-fuzz --replay.
 */

#ifndef RBSIM_SERVE_PROTOCOL_HH
#define RBSIM_SERVE_PROTOCOL_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "core/machine_config.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"

namespace rbsim::serve
{

/** The response schema tag. */
inline constexpr const char *schemaName = "rbsim-serve-1";

/** Machine-readable failure categories (docs/SERVING.md). */
enum class ErrorCode
{
    Parse,            //!< malformed JSON line
    BadRequest,       //!< well-formed JSON, invalid shape/fields
    UnknownMachine,   //!< machine label/alias not recognized
    UnknownWorkload,  //!< workload name not registered
    UnknownScheduler, //!< scheduler not wakeup/oracle
    BadProgram,       //!< assembly failed to assemble
    OversizedProgram, //!< program exceeds the server's instruction cap
    DuplicateId,      //!< request id already used this session
    DuplicateInFlight, //!< identical job already executing
    SimFailed,        //!< run threw (cosim or wakeup-oracle mismatch)
    SimAborted,       //!< run stopped without HALT (watchdog deadlock or
                      //!< cycle budget); record carries the diagnostics
};

/** Wire name of an error code ("unknown-machine", ...). */
const char *errorCodeName(ErrorCode code);

/** A parsed job request. */
struct JobRequest
{
    std::string id;

    // Program: exactly one of the two.
    std::string workload;   //!< registered workload name
    std::string programAsm; //!< TinyAlpha assembly text
    unsigned scale = 1;     //!< workload scale factor

    // Machine: label/alias + width, or a full config object.
    std::string machine;
    unsigned width = 4;
    Json config; //!< full MachineConfig (null when machine/width used)

    std::string scheduler = "wakeup"; //!< wakeup | oracle
    Cycle maxCycles = 100'000'000;
    bool cosim = true;
    //! "max_insts": retired-instruction budget (0 = run to HALT). A
    //! budget-limited stop is a success, not an abort.
    std::uint64_t maxInsts = 0;
    //! "sample" object present: run a SMARTS sampling campaign instead
    //! of one full-detail run. The response is a sampled cell
    //! (ipc/ipc_ci95/windows) whose windows are sharded across the
    //! service's worker pool.
    bool sampled = false;
    SamplingOptions sample; //!< regimen (sample.cosim mirrors `cosim`)
    //! Stat-name filter for the response ("core.ipc", ...); empty keeps
    //! every registered stat.
    std::vector<std::string> statSelect;
};

/** Thrown by parseRequest / requestConfig on an invalid request. */
class RequestError : public std::runtime_error
{
  public:
    RequestError(ErrorCode code_, const std::string &what_arg)
        : std::runtime_error(what_arg), code(code_)
    {}

    ErrorCode code;
};

/**
 * Parse one request line. Throws JsonError on malformed JSON and
 * RequestError on an invalid request object.
 */
JobRequest parseRequest(const std::string &line);

/** Same, from an already-parsed document (the server parses once). */
JobRequest parseRequest(const Json &j);

/**
 * Resolve a request's machine specification to a MachineConfig with the
 * requested scheduler applied. Throws RequestError (UnknownMachine /
 * UnknownScheduler / BadRequest).
 */
MachineConfig requestConfig(const JobRequest &req);

/** Serialize every MachineConfig field (requestConfig inverse). */
Json configToJson(const MachineConfig &cfg);

/** Rebuild a MachineConfig from configToJson output. Unknown keys are
 * rejected, missing keys keep the label's base construction — a dump
 * from a newer field set fails loudly instead of silently dropping an
 * ablation knob. Throws RequestError. */
MachineConfig configFromJson(const Json &j);

/**
 * Canonical configuration fingerprint: the compact JSON dump of
 * configToJson. Two configs simulate identically iff their keys match
 * (label included), so this keys both the per-worker simulators and
 * the result cache.
 */
std::string configKey(const MachineConfig &cfg);

/** Render a success response line (no trailing newline). */
std::string formatResult(const std::string &id, const SimResult &result,
                         bool cache_hit,
                         const std::vector<std::string> &stat_select);

/** Render a structured per-job error record (no trailing newline). */
std::string formatError(const std::string &id, ErrorCode code,
                        const std::string &message);

/**
 * Render the structured record of an aborted run (code "sim-aborted"):
 * the same diagnostics a local run prints — abort classification, the
 * core.deadlockAborts counter, and the last-N pipeline trace ring dump
 * (omitted when empty).
 */
std::string formatAbort(const std::string &id,
                        const std::string &abort_kind,
                        std::uint64_t deadlock_aborts,
                        const std::string &trace_dump);

/**
 * Render a sampled-campaign response: the serve envelope plus
 * "sampled": true, mean IPC with its 95% CI half-width, window count,
 * and the merged window stats in the same nested shape as formatResult.
 */
std::string formatSampledResult(
    const std::string &id, const SampledResult &result,
    const std::vector<std::string> &stat_select);

} // namespace rbsim::serve

#endif // RBSIM_SERVE_PROTOCOL_HH
