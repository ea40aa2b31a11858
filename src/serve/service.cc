#include "serve/service.hh"

#include <cinttypes>
#include <cstdio>
#include <optional>

#include "serve/protocol.hh"
#include "trace/tracer.hh"

namespace rbsim::serve
{

SimService::SimService() : SimService(Options{}) {}

SimService::SimService(const Options &opts)
    : queue(opts.workers), sims(queue.workers()),
      cacheCapacity(opts.cacheCapacity)
{}

std::uint64_t
SimService::programHash(const Program &prog) const
{
    std::shared_ptr<const KeyedProgram> last;
    {
        std::lock_guard<std::mutex> lock(keyedMu);
        last = lastKeyed;
    }
    if (last && last->prog.sameContent(prog))
        return last->hash;
    last = std::make_shared<const KeyedProgram>(
        KeyedProgram{prog, prog.hash()});
    const std::uint64_t h = last->hash;
    {
        std::lock_guard<std::mutex> lock(keyedMu);
        lastKeyed.swap(last);
    }
    return h; // `last` now holds the replaced entry, freed unlocked
}

std::string
SimService::cacheKeyFor(const JobSpec &spec) const
{
    char hash[24];
    std::snprintf(hash, sizeof(hash), "|%016" PRIx64 "|",
                  programHash(spec.prog));
    // SimOptions canonicalizes its own result-affecting fields; the key
    // tracks the struct so a new option can never alias stale results.
    return configKey(spec.cfg) + "|" + spec.prog.name + hash +
           spec.opts.resultKey();
}

Simulator &
SimService::simulatorFor(unsigned worker, const MachineConfig &cfg,
                         const std::string &config_key)
{
    std::unique_ptr<Simulator> &sim = sims[worker][config_key];
    if (!sim) {
        sim = std::make_unique<Simulator>(cfg);
        simCount.fetch_add(1, std::memory_order_relaxed);
    }
    return *sim;
}

bool
SimService::cacheLookup(const std::string &key, SimResult &out)
{
    std::lock_guard<std::mutex> lock(cacheMu);
    auto it = cacheIndex.find(key);
    if (it == cacheIndex.end())
        return false;
    lru.splice(lru.begin(), lru, it->second); // freshen
    out = it->second->second;
    return true;
}

void
SimService::cacheInsert(const std::string &key, const SimResult &result)
{
    if (!cacheCapacity)
        return;
    std::lock_guard<std::mutex> lock(cacheMu);
    auto it = cacheIndex.find(key);
    if (it != cacheIndex.end()) {
        // A concurrent worker raced us to the same key; keep the newer
        // copy fresh (the results are identical by determinism).
        lru.splice(lru.begin(), lru, it->second);
        return;
    }
    lru.emplace_front(key, result);
    cacheIndex[key] = lru.begin();
    while (lru.size() > cacheCapacity) {
        cacheIndex.erase(lru.back().first);
        lru.pop_back();
    }
}

void
SimService::submit(JobSpec spec, std::function<void(JobOutcome)> done)
{
    // configKey identifies the worker's simulator; the full cache key
    // adds the program + options. Both are computed on the caller's
    // thread.
    std::string config_key = configKey(spec.cfg);
    std::string cache_key;
    if (!spec.bypassCache) {
        cache_key = cacheKeyFor(spec);
        JobOutcome hit;
        if (cacheLookup(cache_key, hit.result)) {
            cacheHits.fetch_add(1, std::memory_order_relaxed);
            hit.ok = true;
            hit.cacheHit = true;
            done(std::move(hit));
            return;
        }
        cacheMisses.fetch_add(1, std::memory_order_relaxed);
    }

    queue.submit([this, spec = std::move(spec),
                  config_key = std::move(config_key),
                  cache_key = std::move(cache_key),
                  done = std::move(done)](unsigned worker) mutable {
        Simulator &sim = simulatorFor(worker, spec.cfg, config_key);
        JobOutcome out;
        // Abort-diagnostic ring: it allocates all its storage up front,
        // so a run's cycles allocate nothing with or without it.
        std::optional<trace::Tracer> ring;
        if (spec.traceLast && !spec.opts.tracer) {
            trace::Tracer::Options ring_opts;
            ring_opts.ringCap = spec.traceLast;
            spec.opts.tracer = &ring.emplace(ring_opts);
        }
        try {
            sim.runInto(spec.prog, spec.opts, out.result);
            out.ok = true;
        } catch (const std::exception &e) {
            out.error = e.what();
        }
        jobsExecuted.fetch_add(1, std::memory_order_relaxed);
        if (out.ok) {
            // Same triage a local run performs in bench/rbsim-run: a
            // run that stopped without HALT or an instruction budget is
            // an abort, classified by the watchdog counter, with the
            // last-N pipeline ring as the post-mortem.
            out.aborted = !out.result.halted && !out.result.instLimited;
            if (out.aborted) {
                out.deadlockAborts =
                    out.result.counter("core.deadlockAborts");
                out.abortKind = out.deadlockAborts ? "watchdog-deadlock"
                                                   : "cycle-budget";
                if (ring)
                    out.traceDump = ring->renderRing();
            } else if (!spec.bypassCache) {
                // Aborted outcomes are deliberately not cached: their
                // value is the diagnostics, and a later retry with a
                // bigger budget must actually run.
                cacheInsert(cache_key, out.result);
            }
        }
        done(std::move(out));
    });
}

std::vector<JobOutcome>
SimService::runBatch(std::vector<JobSpec> specs)
{
    std::vector<JobOutcome> out(specs.size());

    // Coalesce duplicates inside the batch: only the first occurrence of
    // a cacheable key executes; the rest copy its outcome below.
    std::unordered_map<std::string, std::size_t> firstOf;
    std::vector<std::pair<std::size_t, std::size_t>> dups;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!specs[i].bypassCache) {
            const auto [it, fresh] =
                firstOf.try_emplace(cacheKeyFor(specs[i]), i);
            if (!fresh) {
                dups.emplace_back(i, it->second);
                continue;
            }
        }
        // Distinct slots: no lock needed, wait() orders the writes.
        submit(std::move(specs[i]),
               [&out, i](JobOutcome o) { out[i] = std::move(o); });
    }
    wait();
    for (const auto &[dup, first] : dups) {
        out[dup] = out[first];
        out[dup].cacheHit = true;
    }
    return out;
}

SimService::Counters
SimService::counters() const
{
    Counters c;
    c.cacheHits = cacheHits.load(std::memory_order_relaxed);
    c.cacheMisses = cacheMisses.load(std::memory_order_relaxed);
    c.jobsExecuted = jobsExecuted.load(std::memory_order_relaxed);
    c.warmSimulators = simCount.load(std::memory_order_relaxed);
    return c;
}

SimService &
SimService::instance()
{
    static SimService service;
    return service;
}

} // namespace rbsim::serve
