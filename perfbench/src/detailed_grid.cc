/**
 * @file
 * detailed-grid: the paper's Figure 12 grid (four machines at width 4 ×
 * the eight SPECint95-like programs, scale 1, cosim on) submitted each
 * pass, cell by cell, to a one-worker SimService with the result cache
 * bypassed — the jobs bench_common's sweeps send through runBatch.
 */

#include <memory>
#include <numeric>
#include <stdexcept>

#include "common.hh"
#include "serve/service.hh"
#include "workloads/workload.hh"

namespace rbperf
{

using rbsim::Json;
using rbsim::MachineConfig;
using rbsim::Program;
using rbsim::serve::JobOutcome;
using rbsim::serve::JobSpec;
using rbsim::serve::SimService;

namespace
{

struct Grid
{
    std::vector<MachineConfig> machines;
    std::vector<Program> progs;
    std::unique_ptr<SimService> service;

    /** Workload-major cell order, as in BENCH_fig12_wakeup.json. */
    std::vector<JobSpec>
    specs(std::uint64_t max_insts = 0) const
    {
        std::vector<JobSpec> out;
        for (const Program &p : progs) {
            for (const MachineConfig &m : machines) {
                JobSpec s;
                s.cfg = m;
                s.prog = p;
                s.opts.maxInsts = max_insts;
                s.bypassCache = true;
                out.push_back(std::move(s));
            }
        }
        return out;
    }
};

void
setUp(Grid &g, std::uint64_t seed)
{
    g.machines = paperMachines(4);
    for (const rbsim::WorkloadInfo &w : rbsim::suiteWorkloads("spec95")) {
        rbsim::WorkloadParams wp;
        wp.seed = seed;
        g.progs.push_back(w.build(wp));
    }
    SimService::Options so;
    so.workers = 1;
    g.service = std::make_unique<SimService>(so);
    // One warm simulator per machine and one predecode per program; the
    // cache is bypassed, so nothing of the timed phase is pre-computed.
    for (const JobOutcome &o : g.service->runBatch(g.specs(1))) {
        if (!o.ok)
            throw std::runtime_error("warm-up failed: " + o.error);
    }
}

Json
cellRecord(const JobSpec &spec, const JobOutcome &o)
{
    Json c = Json::object();
    c["machine"] = spec.cfg.label;
    c["workload"] = spec.prog.name;
    c["ok"] = o.ok && !o.aborted;
    c["error"] = o.error.empty() ? o.abortKind : o.error;
    c["halted"] = o.result.halted;
    c["cycles"] = o.result.counter("core.cycles");
    c["retired"] = o.result.counter("core.retired");
    c["digest"] = snapshotDigest(o.result.stats);
    return c;
}

/** One pass: outcomes, each cell's seconds, and the host-speed
 *  reference runs made between cells. */
struct Pass
{
    std::vector<JobOutcome> outcomes;
    std::vector<double> cellSecs;
    std::vector<double> refSecs;
};

/**
 * Submit the cells one at a time, with the cache bypassed as runBatch
 * does, and run the host-speed reference after each. A cell's time is
 * submit to completion: dispatch, simulator reset, the run and the
 * result copy.
 */
Pass
runPass(SimService &service, const std::vector<JobSpec> &specs)
{
    Pass p;
    for (const JobSpec &spec : specs) {
        JobOutcome got;
        const auto t0 = Clock::now();
        service.submit(spec, [&got](JobOutcome o) { got = std::move(o); });
        service.wait();
        p.cellSecs.push_back(secondsSince(t0));
        p.outcomes.push_back(std::move(got));
        p.refSecs.push_back(referenceSeconds());
    }
    return p;
}

} // namespace

int
runDetailedGrid(const RunOptions &opts, Json &out)
{
    Grid g;
    std::vector<double> setup_secs;
    auto setUpGrid = [&] {
        timeSetups(setup_secs, [&] { setUp(g, opts.seed); },
                   [&] {
                       g.service.reset();
                       g.progs.clear();
                   });
    };
    setUpGrid();
    out["provenance"] = provenance(opts, g.service->workers());

    // Timed phase: whole passes over the grid, each after its set-ups.
    const std::vector<JobSpec> specs = g.specs();
    Json passes = Json::array();
    std::vector<double> pass_secs;
    std::vector<std::vector<double>> cell_secs(specs.size());
    std::vector<std::uint64_t> cell_cycles; // of the first pass
    double timed_s = 0;
    while (anotherPass(pass_secs.size(), timed_s, opts.seconds)) {
        if (!pass_secs.empty())
            setUpGrid();
        const Pass p = runPass(*g.service, specs);
        pass_secs.push_back(
            std::accumulate(p.cellSecs.begin(), p.cellSecs.end(), 0.0));
        timed_s += pass_secs.back();
        Json pass = Json::object();
        pass["seconds"] = pass_secs.back();
        pass["ref_s"] = jsonArray(p.refSecs);
        Json cells = Json::array();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const JobOutcome &o = p.outcomes[i];
            Json c = cellRecord(specs[i], o);
            c["seconds"] = p.cellSecs[i];
            cells.push(std::move(c));
            cell_secs[i].push_back(p.cellSecs[i]);
            if (pass_secs.size() == 1)
                cell_cycles.push_back(o.result.counter("core.cycles"));
        }
        pass["cells"] = std::move(cells);
        passes.push(std::move(pass));
    }
    out["passes"] = std::move(passes);
    out["setup_s"] = jsonArray(setup_secs);
    out["peak_rss_mb"] = peakRssMb();
    if (!opts.trace)
        return 0;

    // Traced phase: one pass, a cell at a time through
    // SimService::submit with the host profiler attached.
    Spans spans;
    CoreTally tally;
    Json traced_cells = Json::array();
    const auto tt = Clock::now();
    {
        SpanScope ps(spans, "grid.pass", 0);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            SpanScope cs(spans, "service.job", i, ps.index());
            JobSpec spec = specs[i];
            spec.opts.profiler = tally.profiler(spec.cfg.label);
            JobOutcome got;
            const auto tj = Clock::now();
            g.service->submit(std::move(spec),
                              [&got](JobOutcome o) { got = std::move(o); });
            g.service->wait();
            tally.add(got.result, secondsSince(tj));
            traced_cells.push(cellRecord(specs[i], got));
        }
    }
    const double traced_s = secondsSince(tt);
    out["traced_cells"] = std::move(traced_cells);

    Json layers = Json::object();
    tally.report(traced_s, layers);
    spanShares(spans, traced_s, 0.0, layers); // sweeps attach no ring
    // Each machine's untraced speed: its cells' median wall times.
    for (std::size_t m = 0; m < g.machines.size(); ++m) {
        double host = 0;
        std::uint64_t cyc = 0;
        for (std::size_t i = m; i < specs.size(); i += g.machines.size()) {
            cyc += cell_cycles[i];
            host += median(cell_secs[i]);
        }
        layers["core.kcyc_per_s." + g.machines[m].label] =
            static_cast<double>(cyc) / host / 1e3;
    }
    simulatorCosts(g.machines, g.progs, layers);
    rbsim::WorkloadParams wp;
    wp.seed = opts.seed;
    buildCost(g.progs, wp, layers);
    out["layers"] = std::move(layers);
    out["untraced_s"] = median(pass_secs);
    out["traced_s"] = traced_s;
    spans.write(opts.spansPath);
    return 0;
}

} // namespace rbperf
