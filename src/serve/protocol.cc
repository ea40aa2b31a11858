#include "serve/protocol.hh"

#include <cstdio>
#include <stdexcept>

namespace rbsim::serve
{

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Parse: return "parse";
      case ErrorCode::BadRequest: return "bad-request";
      case ErrorCode::UnknownMachine: return "unknown-machine";
      case ErrorCode::UnknownWorkload: return "unknown-workload";
      case ErrorCode::BadProgram: return "bad-program";
      case ErrorCode::OversizedProgram: return "oversized-program";
      case ErrorCode::DuplicateId: return "duplicate-id";
      case ErrorCode::DuplicateInFlight: return "duplicate-in-flight";
      case ErrorCode::SimFailed: return "sim-failed";
      case ErrorCode::SimAborted: return "sim-aborted";
      default: return "<bad>";
    }
}

namespace
{

/** The server answers every std::invalid_argument with bad-request. */
[[noreturn]] void
bad(const std::string &msg)
{
    throw std::invalid_argument(msg);
}

} // namespace

JobRequest
parseRequest(const std::string &line)
{
    return parseRequest(Json::parse(line)); // throws JsonError on bad JSON
}

JobRequest
parseRequest(const Json &j)
{
    if (!j.isObject())
        bad("request must be a JSON object");

    JobRequest req;
    bool sawId = false, sawWorkload = false, sawProgram = false;
    bool sawMachine = false, sawConfig = false;
    for (const auto &[key, v] : j.items()) {
        if (key == "id") {
            sawId = true;
            if (v.isString())
                req.id = v.asString();
            else if (v.isIntegral())
                req.id = std::to_string(v.asU64());
            else
                bad("\"id\" must be a string or integer");
        } else if (key == "workload") {
            sawWorkload = true;
            req.workload = asStringField(v, key);
        } else if (key == "program") {
            sawProgram = true;
            req.programAsm = asStringField(v, key);
        } else if (key == "scale") {
            req.scale = asSizeField(v, key);
        } else if (key == "machine") {
            sawMachine = true;
            req.machine = asStringField(v, key);
        } else if (key == "width") {
            req.width = asSizeField(v, key);
        } else if (key == "config") {
            sawConfig = true;
            if (!v.isObject())
                bad("\"config\" must be an object");
            req.config = v;
        } else if (key == "max_cycles") {
            req.maxCycles = asU64Field(v, key);
        } else if (key == "cosim") {
            req.cosim = asBoolField(v, key);
        } else if (key == "max_insts") {
            req.maxInsts = asU64Field(v, key);
        } else if (key == "sample") {
            if (!v.isObject())
                bad("\"sample\" must be an object");
            req.sampled = true;
            for (const auto &[sk, sv] : v.items()) {
                if (sk == "skip_insts")
                    req.sample.skipInsts = asU64Field(sv, sk);
                else if (sk == "period_insts")
                    req.sample.periodInsts = asU64Field(sv, sk);
                else if (sk == "warmup_insts")
                    req.sample.warmupInsts = asU64Field(sv, sk);
                else if (sk == "measure_insts")
                    req.sample.measureInsts = asU64Field(sv, sk);
                else if (sk == "max_windows")
                    req.sample.maxWindows = asU64Field(sv, sk);
                else if (sk == "max_cycles_per_window")
                    req.sample.maxCyclesPerWindow = asU64Field(sv, sk);
                else
                    bad("unknown key \"" + sk + "\" in \"sample\"");
            }
            if (req.sample.periodInsts == 0 ||
                req.sample.measureInsts == 0)
                bad("\"sample\" needs nonzero period_insts and "
                    "measure_insts");
        } else if (key == "stats") {
            if (!v.isArray())
                bad("\"stats\" must be an array of stat names");
            for (const Json &e : v.elements())
                req.statSelect.push_back(asStringField(e, key));
        } else {
            bad("unknown key \"" + key + "\"");
        }
    }

    if (!sawId || req.id.empty())
        bad("missing \"id\"");
    if (sawWorkload == sawProgram)
        bad("exactly one of \"workload\" / \"program\" is required");
    if (sawMachine && sawConfig)
        bad("\"machine\" and \"config\" are mutually exclusive");
    if (!sawMachine && !sawConfig)
        bad("one of \"machine\" / \"config\" is required");
    if (sawWorkload && req.scale == 0)
        bad("\"scale\" must be at least 1");
    if (req.sampled && req.maxInsts)
        bad("\"max_insts\" and \"sample\" are mutually exclusive");
    req.sample.cosim = req.cosim;
    return req;
}

MachineConfig
requestConfig(const JobRequest &req)
{
    // The "machine" + "width" shorthand is the config object of its two
    // base keys.
    Json spec = req.config;
    if (spec.isNull()) {
        spec = Json::object();
        spec["kind"] = Json(req.machine);
        spec["width"] = Json(req.width);
    }
    const Json *kind = spec.find("kind");
    if (kind && kind->isString() && !machineKindFromName(kind->asString()))
        throw RequestError(ErrorCode::UnknownMachine,
                           "unknown machine \"" + kind->asString() +
                               "\" (want base/rblim/rbfull/ideal or a "
                               "figure label)");
    return configFromJson(spec);
}

std::string
formatResult(const std::string &id, const SimResult &result,
             bool cache_hit, const std::vector<std::string> &stat_select)
{
    Json j = Json::object();
    j["schema"] = Json(schemaName);
    j["id"] = Json(id);
    j["ok"] = Json(true);
    j["cache_hit"] = Json(cache_hit);
    // The rbsim-bench-1 cell fields, so a response line can be dropped
    // straight into a bench JSON's "cells" array.
    j["machine"] = Json(result.machine);
    j["workload"] = Json(result.workload);
    j["ipc"] = Json(result.ipc());
    j["host_ms"] = Json(result.hostSeconds * 1e3);
    j["sim_khz"] = Json(result.simKhz());
    j["halted"] = Json(result.halted);
    if (result.instLimited)
        j["inst_limited"] = Json(true);
    j["stats"] = result.stats.toJson(stat_select);
    return j.dump();
}

std::string
formatSampledResult(const std::string &id, const SampledResult &result,
                    const std::vector<std::string> &stat_select)
{
    Json j = Json::object();
    j["schema"] = Json(schemaName);
    j["id"] = Json(id);
    j["ok"] = Json(true);
    j["cache_hit"] = Json(false);
    j["sampled"] = Json(true);
    j["machine"] = Json(result.machine);
    j["workload"] = Json(result.workload);
    j["ipc"] = Json(result.ipcMean);
    j["ipc_ci95"] = Json(result.ipcCi95);
    j["windows"] = Json(result.windows);
    j["ff_insts"] = Json(result.ffInsts);
    j["completed"] = Json(result.completed);
    j["host_ms"] = Json(result.hostSeconds * 1e3);
    j["halted"] = Json(result.completed);
    j["stats"] = result.merged.toJson(stat_select);
    return j.dump();
}

std::string
formatAbort(const std::string &id, const std::string &abort_kind,
            std::uint64_t deadlock_aborts, const std::string &trace_dump)
{
    Json j = Json::object();
    j["schema"] = Json(schemaName);
    j["id"] = Json(id);
    j["ok"] = Json(false);
    j["code"] = Json(errorCodeName(ErrorCode::SimAborted));
    j["error"] =
        Json("simulation stopped before HALT (" + abort_kind + ")");
    j["abort_kind"] = Json(abort_kind);
    j["deadlock_aborts"] = Json(deadlock_aborts);
    if (!trace_dump.empty())
        j["trace"] = Json(trace_dump);
    return j.dump();
}

std::string
formatError(const std::string &id, ErrorCode code,
            const std::string &message)
{
    Json j = Json::object();
    j["schema"] = Json(schemaName);
    if (!id.empty())
        j["id"] = Json(id);
    j["ok"] = Json(false);
    j["code"] = Json(errorCodeName(code));
    j["error"] = Json(message);
    return j.dump();
}

} // namespace rbsim::serve
