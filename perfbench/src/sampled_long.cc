/**
 * @file
 * sampled-long: sequential SMARTS campaigns through serve::runSampled,
 * each on a fresh one-worker SimService (so no window is a cache hit),
 * over long programs with a sparse fixed regimen. Fast-forward and
 * checkpoint restore do most of the work here, detailed windows the
 * rest.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.hh"
#include "func/interp.hh"
#include "func/predecode.hh"
#include "serve/sampled.hh"
#include "sim/fastfwd.hh"
#include "workloads/workload.hh"

namespace rbperf
{

using rbsim::ArchCheckpoint;
using rbsim::Json;
using rbsim::MachineConfig;
using rbsim::Program;
using rbsim::SamplingOptions;
using rbsim::SimOptions;
using rbsim::SimResult;
using rbsim::Simulator;
using rbsim::serve::JobOutcome;
using rbsim::serve::JobSpec;
using rbsim::serve::SimService;

namespace
{

constexpr unsigned kScale = 40;
const char *const kPrograms[] = {"go", "gcc", "li", "vortex"};

SamplingOptions
regimen()
{
    SamplingOptions r;
    r.periodInsts = 1'000'000;
    r.warmupInsts = 2'000;
    r.measureInsts = 10'000;
    return r;
}

struct Campaign
{
    MachineConfig cfg;
    const Program *prog;
};

struct Suite
{
    std::vector<MachineConfig> machines; //!< RB-limited, RB-full
    std::vector<Program> progs;
    std::vector<Campaign> campaigns; //!< program-major, then machine
};

rbsim::WorkloadParams
params(std::uint64_t seed)
{
    rbsim::WorkloadParams wp;
    wp.scale = kScale;
    wp.seed = seed;
    return wp;
}

void
setUp(Suite &s, std::uint64_t seed)
{
    for (const char *name : kPrograms)
        s.progs.push_back(rbsim::findWorkload(name).build(params(seed)));
    const auto machines = paperMachines(4);
    s.machines = {machines[1], machines[2]};
    for (const Program &p : s.progs) {
        for (const MachineConfig &m : s.machines)
            s.campaigns.push_back(Campaign{m, &p});
    }
    // Pay the lazy set-up once: predecode per program, and a warm
    // simulator plus fast-forward engine per machine.
    for (const Program &p : s.progs)
        rbsim::decodeProgram(p);
    for (const Campaign &c : s.campaigns) {
        rbsim::FastForward ff(c.cfg, *c.prog);
        ff.run(1);
        SimOptions one;
        one.maxInsts = 1;
        Simulator(c.cfg).run(*c.prog, one);
    }
}

Json
campaignKey(const Campaign &c, std::uint64_t seed)
{
    Json k = Json::object();
    k["machine"] = c.cfg.label;
    k["workload"] = c.prog->name;
    k["scale"] = kScale;
    k["seed"] = seed;
    k["program_hash"] = hex(c.prog->hash());
    return k;
}

/** One campaign through serve::runSampled on a fresh one-worker
 *  SimService, so no window is a cache hit; the service's teardown is
 *  part of the campaign. */
rbsim::serve::SampledOutcome
runCampaign(const Campaign &c)
{
    SimService::Options so;
    so.workers = 1;
    SimService service(so);
    return rbsim::serve::runSampled(service, c.cfg, *c.prog, regimen());
}

/** What the traced replay of one campaign measured. */
struct Replay
{
    double ipcMean = 0;
    std::uint64_t windows = 0;
    std::uint64_t ffInsts = 0;
    std::vector<std::shared_ptr<const ArchCheckpoint>> points;
};

/**
 * runSampled's steps as direct calls, each inside a span:
 * collectCheckpoints' fast-forward loop, then every window submitted to
 * a fresh one-worker SimService the way submitSampled does it, with the
 * host profiler attached.
 */
Replay
replay(const Campaign &c, std::uint64_t id, Spans &spans, CoreTally &tally)
{
    const SamplingOptions r = regimen();
    Replay out;
    SpanScope cs(spans, "campaign", id);
    rbsim::FastForward ff(c.cfg, *c.prog);
    auto advance = [&](std::uint64_t n) {
        SpanScope s(spans, "fastfwd.run", id, cs.index());
        out.ffInsts += ff.run(n);
    };
    advance(r.skipInsts);
    while (!ff.halted()) {
        auto ck = std::make_shared<ArchCheckpoint>();
        {
            SpanScope s(spans, "checkpoint.capture", id, cs.index());
            ff.capture(*ck);
        }
        out.points.push_back(std::move(ck));
        advance(r.periodInsts);
    }

    SimService::Options so;
    so.workers = 1;
    SimService service(so);
    std::vector<double> ipc;
    for (const auto &ck : out.points) {
        SpanScope s(spans, "sampling.window", ipc.size(), cs.index());
        {
            // Memoized: the service's cache key below reuses it.
            SpanScope f(spans, "checkpoint.fingerprint", ipc.size(),
                        s.index());
            ck->fingerprint();
        }
        JobSpec spec;
        spec.cfg = c.cfg;
        spec.prog = *c.prog;
        spec.opts.maxCycles = r.maxCyclesPerWindow;
        spec.opts.cosim = r.cosim;
        spec.opts.warmupInsts = r.warmupInsts;
        spec.opts.maxInsts = r.measureInsts;
        spec.opts.startFrom = ck;
        spec.opts.profiler = tally.profiler(c.cfg.label);
        JobOutcome got;
        const auto tj = Clock::now();
        service.submit(std::move(spec),
                       [&got](JobOutcome o) { got = std::move(o); });
        service.wait();
        tally.add(got.result, secondsSince(tj));
        ipc.push_back(got.ok && !got.aborted ? got.result.ipc() : -1.0);
    }
    out.windows = ipc.size();
    out.ipcMean = rbsim::arithmeticMean(ipc);
    return out;
}

} // namespace

int
runSampledLong(const RunOptions &opts, Json &out)
{
    Suite s;
    std::vector<double> setup_secs;
    auto setUpSuite = [&] {
        timeSetups(setup_secs, [&] { setUp(s, opts.seed); },
                   [&] { s = Suite{}; });
    };
    setUpSuite();
    out["provenance"] = provenance(opts, 1);

    // Timed phase: whole passes over the campaigns, each after its
    // set-ups.
    Json passes = Json::array();
    std::vector<rbsim::serve::SampledOutcome> first;
    std::vector<double> pass_secs;
    double timed_s = 0;
    while (anotherPass(pass_secs.size(), timed_s, opts.seconds)) {
        if (!pass_secs.empty())
            setUpSuite();
        Json pass = Json::object();
        Json camps = Json::array();
        std::vector<double> ref_secs;
        double pass_s = 0;
        for (const Campaign &c : s.campaigns) {
            const auto tc = Clock::now();
            rbsim::serve::SampledOutcome o = runCampaign(c);
            const double camp_s = secondsSince(tc);
            pass_s += camp_s;
            ref_secs.push_back(referenceSeconds());
            Json rec = campaignKey(c, opts.seed);
            rec["seconds"] = camp_s;
            rec["ok"] = o.ok;
            rec["error"] = o.error;
            rec["completed"] = o.result.completed;
            rec["windows"] = o.result.windows;
            rec["ff_insts"] = o.result.ffInsts;
            rec["ipc"] = o.result.ipcMean;
            rec["ipc_ci95"] = o.result.ipcCi95;
            camps.push(std::move(rec));
            if (passes.size() == 0)
                first.push_back(std::move(o));
        }
        pass_secs.push_back(pass_s);
        timed_s += pass_s;
        pass["seconds"] = pass_s;
        pass["ref_s"] = jsonArray(ref_secs);
        pass["campaigns"] = std::move(camps);
        passes.push(std::move(pass));
    }
    out["passes"] = std::move(passes);
    out["setup_s"] = jsonArray(setup_secs);
    out["peak_rss_mb"] = peakRssMb();
    if (!opts.trace)
        return 0;

    // Traced phase: one pass replaying every campaign with direct calls.
    Spans spans;
    CoreTally tally;
    std::vector<Replay> replays;
    const auto tt = Clock::now();
    for (std::size_t i = 0; i < s.campaigns.size(); ++i)
        replays.push_back(replay(s.campaigns[i], i, spans, tally));
    const double traced_s = secondsSince(tt);
    Json traced = Json::array();
    for (std::size_t i = 0; i < replays.size(); ++i) {
        Json rec = Json::object();
        // Bit-for-bit: the replay must reproduce runSampled's IPC.
        rec["same_ipc"] = replays[i].ipcMean == first[i].result.ipcMean &&
                          replays[i].windows == first[i].result.windows;
        rec["ipc"] = replays[i].ipcMean;
        traced.push(std::move(rec));
    }
    out["traced_campaigns"] = std::move(traced);

    Json layers = Json::object();
    tally.report(traced_s, layers);
    spanShares(spans, traced_s, 0.0, layers); // windows attach no ring
    simulatorCosts(s.machines, s.progs, layers);
    buildCost(s.progs, params(opts.seed), layers);

    // Untimed probes after the traced pass.
    {
        std::uint64_t n = 0;
        double sec = 0;
        for (const Program &p : s.progs) {
            rbsim::Interp in(p);
            const auto t = Clock::now();
            n += in.runFast(~std::uint64_t{0});
            sec += secondsSince(t);
        }
        layers["func.runfast_minst_per_s"] = static_cast<double>(n) / sec / 1e6;
    }
    {
        std::uint64_t n = 0;
        for (const Replay &r : replays)
            n += r.ffInsts;
        layers["fastfwd.minst_per_s"] =
            static_cast<double>(n) / spans.total("fastfwd.run") / 1e6;
    }
    layers["checkpoint.capture_us"] =
        median(spans.durations("checkpoint.capture")) * 1e6;
    {
        double bytes = 0;
        std::size_t count = 0;
        SimOptions one;
        one.maxInsts = 1;
        SimResult scratch;
        for (std::size_t p = 0; p < s.progs.size(); ++p) {
            std::vector<double> restore;
            for (std::size_t i = 0; i < s.campaigns.size(); ++i) {
                if (s.campaigns[i].prog != &s.progs[p])
                    continue;
                Simulator sim(s.campaigns[i].cfg);
                for (const auto &ck : replays[i].points) {
                    one.startFrom = ck;
                    const auto t = Clock::now();
                    sim.runInto(s.progs[p], one, scratch);
                    restore.push_back(secondsSince(t));
                    bytes += static_cast<double>(ck->serialize().size());
                    ++count;
                }
            }
            layers["checkpoint.restore_ms." + s.progs[p].name] =
                median(restore) * 1e3;
        }
        layers["checkpoint.kb"] = bytes / static_cast<double>(count) / 1024;
    }
    const double windows_s = spans.total("sampling.window");
    layers["sampling.window_ms"] =
        windows_s * 1e3 /
        static_cast<double>(spans.durations("sampling.window").size());
    layers["sampling.detailed_frac"] = windows_s / spans.total("campaign");
    layers["checkpoint.fingerprint_ms"] =
        median(spans.durations("checkpoint.fingerprint")) * 1e3;
    {
        double rel = 0;
        for (const auto &o : first)
            rel += o.result.ipcCi95 / o.result.ipcMean;
        layers["sampling.ci95_rel"] = rel / static_cast<double>(first.size());
    }
    out["layers"] = std::move(layers);
    out["untraced_s"] = median(pass_secs);
    out["traced_s"] = traced_s;
    spans.write(opts.spansPath);
    return 0;
}

int
generateSampledReferences(std::uint64_t seed, Json &out)
{
    Suite s;
    setUp(s, seed);
    const SamplingOptions r = regimen();
    std::vector<Json> recs(s.campaigns.size());
    std::vector<std::string> errors(s.campaigns.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i; (i = next++) < s.campaigns.size();) {
            const Campaign &c = s.campaigns[i];
            try {
                const SimResult full = rbsim::simulate(c.cfg, *c.prog);
                if (!full.halted)
                    throw std::runtime_error("full-detail run did not halt");
                std::uint64_t ff_insts = 0;
                const auto points =
                    rbsim::collectCheckpoints(c.cfg, *c.prog, r, &ff_insts);
                // The timed path, run once: a reference whose sampled
                // IPC differs from the timed campaign's is stale.
                const rbsim::serve::SampledOutcome o = runCampaign(c);
                if (!o.ok || !o.result.completed)
                    throw std::runtime_error("sampled run failed: " +
                                             o.error);
                Json rec = campaignKey(c, seed);
                rec["full_ipc"] = full.ipc();
                rec["sampled_ipc"] = o.result.ipcMean;
                rec["windows"] = static_cast<std::uint64_t>(points.size());
                rec["ff_insts"] = ff_insts;
                recs[i] = std::move(rec);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
         ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    Json arr = Json::array();
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (!errors[i].empty()) {
            std::fprintf(stderr, "reference %s/%s failed: %s\n",
                         s.campaigns[i].cfg.label.c_str(),
                         s.campaigns[i].prog->name.c_str(),
                         errors[i].c_str());
            return 1;
        }
        arr.push(std::move(recs[i]));
    }
    out = std::move(arr);
    return 0;
}

} // namespace rbperf
