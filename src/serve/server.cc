#include "serve/server.hh"

#include <cstdio>
#include <stdexcept>

#include "isa/assembler.hh"
#include "workloads/workload.hh"

namespace rbsim::serve
{

Server::Server(const Options &opts_,
               std::function<void(const std::string &)> sink_)
    : opts(opts_), service(opts_.service), sink(std::move(sink_))
{}

void
Server::emit(const std::string &line)
{
    std::lock_guard<std::mutex> lock(sinkMu);
    sink(line);
}

void
Server::finishJob(const std::string &id, const std::string &key,
                  const std::vector<std::string> &stat_select,
                  const JobOutcome &outcome)
{
    {
        std::lock_guard<std::mutex> lock(stateMu);
        inFlight.erase(key);
        if (outcome.ok && !outcome.aborted)
            ++okCount;
        else
            ++failCount;
    }
    if (!outcome.ok)
        emit(formatError(id, ErrorCode::SimFailed, outcome.error));
    else if (outcome.aborted)
        emit(formatAbort(id, outcome.abortKind, outcome.deadlockAborts,
                         outcome.traceDump));
    else
        emit(formatResult(id, outcome.result, outcome.cacheHit,
                          stat_select));
}

void
Server::finishSampled(const std::string &id, const std::string &key,
                      const std::vector<std::string> &stat_select,
                      const SampledOutcome &outcome)
{
    {
        std::lock_guard<std::mutex> lock(stateMu);
        inFlight.erase(key);
        if (outcome.ok)
            ++okCount;
        else
            ++failCount;
    }
    emit(outcome.ok
             ? formatSampledResult(id, outcome.result, stat_select)
             : formatError(id,
                           outcome.aborted ? ErrorCode::SimAborted
                                           : ErrorCode::SimFailed,
                           outcome.error));
}

void
Server::handleLine(const std::string &line)
{
    if (line.find_first_not_of(" \t\r\n") == std::string::npos)
        return;

    auto fail = [&](const std::string &id, ErrorCode code,
                    const std::string &msg) {
        {
            std::lock_guard<std::mutex> lock(stateMu);
            ++failCount;
        }
        emit(formatError(id, code, msg));
    };

    Json doc;
    try {
        doc = Json::parse(line);
    } catch (const JsonError &e) {
        fail("", ErrorCode::Parse, e.what());
        return;
    }

    // Best-effort id for error records on requests that fail validation.
    std::string id;
    if (doc.isObject()) {
        if (const Json *v = doc.find("id")) {
            if (v->isString())
                id = v->asString();
            else if (v->isIntegral())
                id = std::to_string(v->asU64());
        }
    }

    JobRequest req;
    MachineConfig cfg;
    try {
        req = parseRequest(doc);
        cfg = requestConfig(req);
    } catch (const RequestError &e) {
        fail(id, e.code, e.what());
        return;
    } catch (const std::invalid_argument &e) {
        fail(id, ErrorCode::BadRequest, e.what());
        return;
    }

    Program prog;
    try {
        if (!req.workload.empty()) {
            if (req.scale > opts.maxScale) {
                fail(id, ErrorCode::OversizedProgram,
                     "scale " + std::to_string(req.scale) +
                         " exceeds the server cap of " +
                         std::to_string(opts.maxScale));
                return;
            }
            const WorkloadInfo &wl = findWorkload(req.workload);
            WorkloadParams wp;
            wp.scale = req.scale;
            prog = wl.build(wp);
        } else {
            prog = assemble(req.programAsm);
            // The program's name is part of the cache identity, so it
            // must depend on content, not on the request id — identical
            // submissions from different clients share a cache entry.
            if (prog.name.empty())
                prog.name = "program";
        }
    } catch (const std::out_of_range &) {
        fail(id, ErrorCode::UnknownWorkload,
             "unknown workload \"" + req.workload + "\"");
        return;
    } catch (const AsmError &e) {
        fail(id, ErrorCode::BadProgram, e.what());
        return;
    }
    if (prog.code.size() > opts.maxProgramInsts) {
        fail(id, ErrorCode::OversizedProgram,
             std::to_string(prog.code.size()) +
                 " instructions exceed the server cap of " +
                 std::to_string(opts.maxProgramInsts));
        return;
    }

    JobSpec spec;
    spec.cfg = std::move(cfg);
    spec.prog = std::move(prog);
    spec.opts.maxCycles = req.maxCycles;
    spec.opts.cosim = req.cosim;
    spec.opts.maxInsts = req.maxInsts;
    spec.traceLast = opts.traceLast;

    // Campaigns are tracked under their own key (the window jobs carry
    // the per-checkpoint cache identities): config + program + regimen.
    std::string key;
    if (req.sampled) {
        char regimen[192];
        std::snprintf(regimen, sizeof(regimen),
                      "|sample;sk=%llu;pd=%llu;wu=%llu;me=%llu;mw=%llu;"
                      "mc=%llu;co=%d",
                      static_cast<unsigned long long>(req.sample.skipInsts),
                      static_cast<unsigned long long>(req.sample.periodInsts),
                      static_cast<unsigned long long>(req.sample.warmupInsts),
                      static_cast<unsigned long long>(req.sample.measureInsts),
                      static_cast<unsigned long long>(req.sample.maxWindows),
                      static_cast<unsigned long long>(
                          req.sample.maxCyclesPerWindow),
                      int(req.sample.cosim));
        char hash[32];
        std::snprintf(hash, sizeof(hash), "%016llx",
                      static_cast<unsigned long long>(
                          service.programHash(spec.prog)));
        key = configKey(spec.cfg) + "|" + spec.prog.name + "|" + hash +
              regimen;
    } else {
        key = service.cacheKeyFor(spec);
    }

    {
        std::lock_guard<std::mutex> lock(stateMu);
        if (usedIds.count(req.id)) {
            ++failCount;
            emit(formatError(req.id, ErrorCode::DuplicateId,
                             "id \"" + req.id +
                                 "\" was already used this session"));
            return;
        }
        auto fit = inFlight.find(key);
        if (fit != inFlight.end()) {
            ++failCount;
            emit(formatError(
                req.id, ErrorCode::DuplicateInFlight,
                "identical job already executing as id \"" + fit->second +
                    "\" — resubmit after it completes for a cache hit"));
            return;
        }
        usedIds.insert(req.id);
        inFlight.emplace(key, req.id);
    }

    if (req.sampled) {
        // The fast-forward pass runs here on the request thread and
        // hands each window to the worker pool as soon as its
        // checkpoint is captured. The response is emitted once the pass
        // has ended and every window completed, by whichever thread
        // gets there last; a pass that throws is answered below, and
        // then the callback never runs.
        try {
            submitSampled(service, spec.cfg, spec.prog, req.sample,
                          [this, id = req.id, key,
                           sel = std::move(req.statSelect)](
                              SampledOutcome outcome) {
                              finishSampled(id, key, sel, outcome);
                          });
        } catch (const std::exception &e) {
            {
                std::lock_guard<std::mutex> lock(stateMu);
                inFlight.erase(key);
                ++failCount;
            }
            emit(formatError(req.id, ErrorCode::SimFailed, e.what()));
        }
        return;
    }

    service.submit(std::move(spec),
                   [this, id = req.id, key,
                    sel = std::move(req.statSelect)](JobOutcome outcome) {
                       finishJob(id, key, sel, outcome);
                   });
}

// ---------------------------------------------------------------- stdio

int
serveStdio(const Server::Options &opts)
{
    Server server(opts, [](const std::string &line) {
        std::fwrite(line.data(), 1, line.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
    });
    std::fprintf(stderr, "rbsim-serve: reading JSON-lines on stdin (%u "
                         "workers)\n",
                 server.simService().workers());

    std::string line;
    line.reserve(4096);
    int c;
    while ((c = std::fgetc(stdin)) != EOF) {
        if (c == '\n') {
            server.handleLine(line);
            line.clear();
        } else {
            line.push_back(static_cast<char>(c));
        }
    }
    if (!line.empty())
        server.handleLine(line);
    server.drain();

    const SimService::Counters ctr = server.simService().counters();
    std::fprintf(stderr,
                 "rbsim-serve: %llu ok, %llu failed; %llu executed, "
                 "%llu cache hits, %llu warm simulators\n",
                 static_cast<unsigned long long>(server.jobsOk()),
                 static_cast<unsigned long long>(server.jobsFailed()),
                 static_cast<unsigned long long>(ctr.jobsExecuted),
                 static_cast<unsigned long long>(ctr.cacheHits),
                 static_cast<unsigned long long>(ctr.warmSimulators));
    return 0;
}

} // namespace rbsim::serve
