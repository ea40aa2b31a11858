#include "serve/protocol.hh"

#include <cstdio>

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
      case ErrorCode::UnknownScheduler: return "unknown-scheduler";
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

[[noreturn]] void
bad(const std::string &msg)
{
    throw RequestError(ErrorCode::BadRequest, msg);
}

std::string
asStringField(const Json &v, const std::string &key)
{
    if (!v.isString())
        bad("\"" + key + "\" must be a string");
    return v.asString();
}

std::uint64_t
asU64Field(const Json &v, const std::string &key)
{
    if (!v.isIntegral())
        bad("\"" + key + "\" must be a non-negative integer");
    return v.asU64();
}

/**
 * A structural machine size: an integer in [lo, hi]. The upper bounds
 * sit well above every committed machine (ROB 256, 640 physical
 * registers, 16-wide) yet keep the core's construction-time storage
 * bounded and every scheduler slot addressable by SlotRef's 16-bit
 * fields; the bypass fields stay within the 8-bit level mask. Out-of-
 * range values would trip a core assertion (or shift past a word) and
 * take the whole server down, so they are a bad request instead.
 */
unsigned
asSizeField(const Json &v, const std::string &key, std::uint64_t lo,
            std::uint64_t hi)
{
    const std::uint64_t n = asU64Field(v, key);
    if (n < lo || n > hi)
        bad("\"" + key + "\" must be in [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "]");
    return static_cast<unsigned>(n);
}

bool
asBoolField(const Json &v, const std::string &key)
{
    if (!v.isBool())
        bad("\"" + key + "\" must be a boolean");
    return v.asBool();
}

Json
cacheToJson(const CacheParams &c)
{
    Json j = Json::object();
    j["size_bytes"] = Json(std::uint64_t{c.sizeBytes});
    j["assoc"] = Json(std::uint64_t{c.assoc});
    j["line_bytes"] = Json(std::uint64_t{c.lineBytes});
    j["latency"] = Json(std::uint64_t{c.latency});
    j["banks"] = Json(std::uint64_t{c.banks});
    j["bank_busy"] = Json(std::uint64_t{c.bankBusy});
    return j;
}

CacheParams
cacheFromJson(const Json &j, const std::string &key)
{
    if (!j.isObject())
        bad("\"" + key + "\" must be an object");
    CacheParams c;
    for (const auto &[k, v] : j.items()) {
        if (k == "size_bytes")
            c.sizeBytes = static_cast<std::uint32_t>(asU64Field(v, k));
        else if (k == "assoc")
            c.assoc = static_cast<std::uint32_t>(asU64Field(v, k));
        else if (k == "line_bytes")
            c.lineBytes = static_cast<std::uint32_t>(asU64Field(v, k));
        else if (k == "latency")
            c.latency = static_cast<unsigned>(asU64Field(v, k));
        else if (k == "banks")
            c.banks = static_cast<unsigned>(asU64Field(v, k));
        else if (k == "bank_busy")
            c.bankBusy = static_cast<unsigned>(asU64Field(v, k));
        else
            bad("unknown key \"" + k + "\" in \"" + key + "\"");
    }
    return c;
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
            req.scale = static_cast<unsigned>(asU64Field(v, key));
        } else if (key == "machine") {
            sawMachine = true;
            req.machine = asStringField(v, key);
        } else if (key == "width") {
            req.width = static_cast<unsigned>(asU64Field(v, key));
        } else if (key == "config") {
            sawConfig = true;
            if (!v.isObject())
                bad("\"config\" must be an object");
            req.config = v;
        } else if (key == "scheduler") {
            req.scheduler = asStringField(v, key);
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
    MachineConfig cfg;
    if (!req.config.isNull()) {
        cfg = configFromJson(req.config);
    } else {
        const std::optional<MachineKind> kind =
            machineKindFromName(req.machine);
        if (!kind)
            throw RequestError(ErrorCode::UnknownMachine,
                               "unknown machine \"" + req.machine +
                                   "\" (want base/rblim/rbfull/ideal or a "
                                   "figure label)");
        if (req.width != 4 && req.width != 8 && req.width != 16)
            bad("\"width\" must be 4, 8, or 16");
        cfg = MachineConfig::make(*kind, req.width);
    }

    // The scheduler mode rides on top of whichever machine was named;
    // both modes produce bit-identical statistics (CI pins it), so the
    // result cache treats them as distinct keys only because the
    // host-speed numbers differ.
    if (req.scheduler == "wakeup") {
        cfg.wakeupOracle = false;
    } else if (req.scheduler == "oracle") {
        cfg.wakeupOracle = true;
    } else {
        throw RequestError(ErrorCode::UnknownScheduler,
                           "unknown scheduler \"" + req.scheduler +
                               "\" (want wakeup or oracle)");
    }
    return cfg;
}

Json
configToJson(const MachineConfig &cfg)
{
    Json j = Json::object();
    j["kind"] = Json(machineAlias(cfg.kind));
    j["label"] = Json(cfg.label);
    j["width"] = Json(std::uint64_t{cfg.width});
    j["num_schedulers"] = Json(std::uint64_t{cfg.numSchedulers});
    j["sched_entries"] = Json(std::uint64_t{cfg.schedEntries});
    j["select_width"] = Json(std::uint64_t{cfg.selectWidth});
    j["num_clusters"] = Json(std::uint64_t{cfg.numClusters});
    j["cross_cluster_delay"] = Json(std::uint64_t{cfg.crossClusterDelay});
    j["fetch_width"] = Json(std::uint64_t{cfg.fetchWidth});
    j["fetch_blocks"] = Json(std::uint64_t{cfg.fetchBlocks});
    j["rename_width"] = Json(std::uint64_t{cfg.renameWidth});
    j["retire_width"] = Json(std::uint64_t{cfg.retireWidth});
    j["rob_entries"] = Json(std::uint64_t{cfg.robEntries});
    j["lsq_entries"] = Json(std::uint64_t{cfg.lsqEntries});
    j["phys_regs"] = Json(std::uint64_t{cfg.physRegs});
    j["fetch_decode_depth"] = Json(std::uint64_t{cfg.fetchDecodeDepth});
    j["rename_depth"] = Json(std::uint64_t{cfg.renameDepth});
    j["rf_read_depth"] = Json(std::uint64_t{cfg.rfReadDepth});
    j["num_bypass_levels"] = Json(std::uint64_t{cfg.numBypassLevels});
    j["bypass_level_mask"] = Json(std::uint64_t{cfg.bypassLevelMask});
    j["rb_limited_bypass"] = Json(cfg.rbLimitedBypass);
    j["has_rb_regfile"] = Json(cfg.hasRbRegfile);
    j["hole_aware_scheduling"] = Json(cfg.holeAwareScheduling);
    j["steering"] = Json(steeringName(cfg.steering));
    j["wakeup_oracle"] = Json(cfg.wakeupOracle);
    j["deadlock_cycles"] = Json(std::uint64_t{cfg.deadlockCycles});
    j["il1"] = cacheToJson(cfg.il1);
    j["dl1"] = cacheToJson(cfg.dl1);
    j["l2"] = cacheToJson(cfg.l2);
    j["mem_latency"] = Json(std::uint64_t{cfg.memLatency});
    j["mem_banks"] = Json(std::uint64_t{cfg.memBanks});
    j["mem_bank_busy"] = Json(std::uint64_t{cfg.memBankBusy});
    Json lat = Json::array();
    for (const LatencyPair &p : cfg.latency) {
        Json pair = Json::array();
        pair.push(Json(std::uint64_t{p.early}));
        pair.push(Json(std::uint64_t{p.late}));
        lat.push(std::move(pair));
    }
    j["latency"] = std::move(lat);
    j["store_complete_lat"] = Json(std::uint64_t{cfg.storeCompleteLat});
    return j;
}

MachineConfig
configFromJson(const Json &j)
{
    if (!j.isObject())
        bad("\"config\" must be an object");

    // Start from the named base machine so a partial dump (kind + the
    // knobs an ablation actually turns) round-trips; then overlay every
    // present key. Unknown keys fail loudly — a dump from a newer field
    // set must not silently drop an ablation knob.
    const Json *kindField = j.find("kind");
    if (!kindField || !kindField->isString())
        bad("\"config\" requires a string \"kind\"");
    const std::optional<MachineKind> kind =
        machineKindFromName(kindField->asString());
    if (!kind)
        throw RequestError(ErrorCode::UnknownMachine,
                           "unknown config kind \"" +
                               kindField->asString() + "\"");
    const Json *widthField = j.find("width");
    const unsigned width =
        widthField ? static_cast<unsigned>(asU64Field(*widthField, "width"))
                   : 4u;
    if (width != 4 && width != 8 && width != 16)
        bad("\"width\" must be 4, 8, or 16");
    MachineConfig cfg = MachineConfig::make(*kind, width);

    for (const auto &[key, v] : j.items()) {
        if (key == "kind" || key == "width") {
            // consumed above
        } else if (key == "label") {
            cfg.label = asStringField(v, key);
        } else if (key == "num_schedulers") {
            cfg.numSchedulers = asSizeField(v, key, 1, 64);
        } else if (key == "sched_entries") {
            cfg.schedEntries = asSizeField(v, key, 1, 4096);
        } else if (key == "select_width") {
            cfg.selectWidth = asSizeField(v, key, 1, 64);
        } else if (key == "num_clusters") {
            cfg.numClusters = static_cast<unsigned>(asU64Field(v, key));
        } else if (key == "cross_cluster_delay") {
            cfg.crossClusterDelay =
                static_cast<unsigned>(asU64Field(v, key));
        } else if (key == "fetch_width") {
            cfg.fetchWidth = asSizeField(v, key, 1, 64);
        } else if (key == "fetch_blocks") {
            cfg.fetchBlocks = static_cast<unsigned>(asU64Field(v, key));
        } else if (key == "rename_width") {
            cfg.renameWidth = asSizeField(v, key, 1, 64);
        } else if (key == "retire_width") {
            cfg.retireWidth = asSizeField(v, key, 1, 64);
        } else if (key == "rob_entries") {
            cfg.robEntries = asSizeField(v, key, 1, 4096);
        } else if (key == "lsq_entries") {
            cfg.lsqEntries = asSizeField(v, key, 1, 4096);
        } else if (key == "phys_regs") {
            // The rename table needs a free register beyond the 32
            // architectural ones.
            cfg.physRegs = asSizeField(v, key, numArchRegs + 1, 8192);
        } else if (key == "fetch_decode_depth") {
            // Depths size the front pipe (fetch_width per stage).
            cfg.fetchDecodeDepth = asSizeField(v, key, 0, 64);
        } else if (key == "rename_depth") {
            cfg.renameDepth = asSizeField(v, key, 0, 64);
        } else if (key == "rf_read_depth") {
            cfg.rfReadDepth = static_cast<unsigned>(asU64Field(v, key));
        } else if (key == "num_bypass_levels") {
            // Level k is bit k-1 of the 8-bit level mask.
            cfg.numBypassLevels = asSizeField(v, key, 1, 8);
        } else if (key == "bypass_level_mask") {
            cfg.bypassLevelMask =
                static_cast<std::uint8_t>(asSizeField(v, key, 0, 255));
        } else if (key == "rb_limited_bypass") {
            cfg.rbLimitedBypass = asBoolField(v, key);
        } else if (key == "has_rb_regfile") {
            cfg.hasRbRegfile = asBoolField(v, key);
        } else if (key == "hole_aware_scheduling") {
            cfg.holeAwareScheduling = asBoolField(v, key);
        } else if (key == "steering") {
            const std::string name = asStringField(v, key);
            const std::optional<Steering> s = steeringFromName(name);
            if (!s)
                bad("unknown steering policy \"" + name + "\"");
            cfg.steering = *s;
        } else if (key == "wakeup_oracle") {
            cfg.wakeupOracle = asBoolField(v, key);
        } else if (key == "deadlock_cycles") {
            cfg.deadlockCycles = asU64Field(v, key);
        } else if (key == "il1") {
            cfg.il1 = cacheFromJson(v, key);
        } else if (key == "dl1") {
            cfg.dl1 = cacheFromJson(v, key);
        } else if (key == "l2") {
            cfg.l2 = cacheFromJson(v, key);
        } else if (key == "mem_latency") {
            cfg.memLatency = static_cast<unsigned>(asU64Field(v, key));
        } else if (key == "mem_banks") {
            cfg.memBanks = static_cast<unsigned>(asU64Field(v, key));
        } else if (key == "mem_bank_busy") {
            cfg.memBankBusy = static_cast<unsigned>(asU64Field(v, key));
        } else if (key == "latency") {
            if (!v.isArray() || v.size() != cfg.latency.size())
                bad("\"latency\" must be an array of " +
                    std::to_string(cfg.latency.size()) +
                    " [early, late] pairs");
            for (std::size_t i = 0; i < cfg.latency.size(); ++i) {
                const Json &pair = v.elements()[i];
                if (!pair.isArray() || pair.size() != 2)
                    bad("\"latency\" entries must be [early, late] pairs");
                cfg.latency[i].early = static_cast<unsigned>(
                    asU64Field(pair.elements()[0], key));
                cfg.latency[i].late = static_cast<unsigned>(
                    asU64Field(pair.elements()[1], key));
            }
        } else if (key == "store_complete_lat") {
            cfg.storeCompleteLat =
                static_cast<unsigned>(asU64Field(v, key));
        } else {
            bad("unknown config key \"" + key + "\"");
        }
    }
    return cfg;
}

std::string
configKey(const MachineConfig &cfg)
{
    return configToJson(cfg).dump();
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
