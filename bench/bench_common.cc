#include "bench_common.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>

#include "common/alloccount.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "serve/service.hh"
#include "sim/report.hh"
#include "trace/tracer.hh"

namespace rbsim::bench
{

// ------------------------------------------------------------- options

namespace
{

[[noreturn]] void
usageDie(const char *prog, const char *why)
{
    std::fprintf(stderr,
                 "%s: %s\n"
                 "usage: %s [--json <path>] [--scale <n>] "
                 "[--machines <label,label,...>] "
                 "[--scheduler wakeup|oracle] "
                 "[--trace <prefix>] [--trace-last <n>] [--profile]\n",
                 prog, why, prog);
    std::exit(2);
}

// The scheduler mode applies to every config a bench builds, including
// ablation grids assembled after parseBenchArgs, so it lives here and is
// applied to a copy of each config right before simulate(). The trace
// options follow the same pattern: the sweep worker consults them for
// every cell.
std::string g_scheduler = "wakeup";
std::string g_trace_prefix;
std::size_t g_trace_last = 0;
bool g_profile = false;

MachineConfig
applyScheduler(MachineConfig cfg)
{
    cfg.wakeupOracle = g_scheduler == "oracle";
    return cfg;
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? csv.size() : comma;
        if (end > start)
            out.push_back(csv.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

} // namespace

BenchOptions
parseBenchArgs(int &argc, char **argv)
{
    BenchOptions opts;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                usageDie(argv[0],
                         (std::string(flag) + " needs a value").c_str());
            return argv[++i];
        };
        if (std::strcmp(arg, "--json") == 0) {
            opts.jsonPath = value("--json");
        } else if (std::strcmp(arg, "--scale") == 0) {
            const long n = std::strtol(value("--scale"), nullptr, 10);
            if (n < 1)
                usageDie(argv[0], "--scale must be >= 1");
            opts.scale = static_cast<unsigned>(n);
        } else if (std::strcmp(arg, "--machines") == 0) {
            opts.machines = splitCsv(value("--machines"));
            if (opts.machines.empty())
                usageDie(argv[0], "--machines needs at least one label");
        } else if (std::strcmp(arg, "--scheduler") == 0) {
            opts.scheduler = value("--scheduler");
            if (opts.scheduler != "wakeup" && opts.scheduler != "oracle")
                usageDie(argv[0], "--scheduler must be wakeup or oracle");
            g_scheduler = opts.scheduler;
        } else if (std::strcmp(arg, "--trace") == 0) {
            opts.tracePrefix = value("--trace");
            g_trace_prefix = opts.tracePrefix;
        } else if (std::strcmp(arg, "--trace-last") == 0) {
            const long n =
                std::strtol(value("--trace-last"), nullptr, 10);
            if (n < 1)
                usageDie(argv[0], "--trace-last must be >= 1");
            opts.traceLast = static_cast<std::size_t>(n);
            g_trace_last = opts.traceLast;
        } else if (std::strcmp(arg, "--profile") == 0) {
            opts.profile = true;
            g_profile = true;
            // Per-thread counting; harmless no-op without the allochook
            // library linked in (allocationsCounted stays false).
            alloccount::enable(true);
        } else {
            argv[out++] = argv[i]; // not ours; leave for the caller
        }
    }
    argc = out;
    argv[argc] = nullptr;
    return opts;
}

std::vector<MachineConfig>
filterMachines(std::vector<MachineConfig> configs,
               const BenchOptions &opts)
{
    if (opts.machines.empty())
        return configs;
    std::vector<MachineConfig> kept;
    for (const MachineConfig &c : configs) {
        for (const std::string &want : opts.machines) {
            if (c.label == want) {
                kept.push_back(c);
                break;
            }
        }
    }
    if (kept.empty()) {
        std::fprintf(stderr, "--machines matched no configuration\n");
        std::exit(2);
    }
    return kept;
}

// -------------------------------------------------------------- report

Cell
sampledCell(const SampledResult &sampled)
{
    Cell cell;
    cell.machine = sampled.machine;
    cell.workload = sampled.workload;
    cell.result.machine = sampled.machine;
    cell.result.workload = sampled.workload;
    cell.result.halted = sampled.completed;
    cell.result.hostSeconds = sampled.hostSeconds;
    cell.result.stats = sampled.merged;
    cell.sampled = true;
    cell.sampledIpc = sampled.ipcMean;
    cell.ci95 = sampled.ipcCi95;
    cell.windows = sampled.windows;
    return cell;
}

double
cellIpc(const Cell &cell)
{
    return cell.sampled ? cell.sampledIpc : cell.result.ipc();
}

BenchReport::BenchReport(std::string bench_, BenchOptions opts_)
    : bench(std::move(bench_)), opts(std::move(opts_))
{}

void
BenchReport::addCell(const Cell &cell)
{
    cells.push_back(cell);
}

void
BenchReport::addCells(const std::vector<Cell> &more)
{
    cells.insert(cells.end(), more.begin(), more.end());
}

void
BenchReport::addMetric(const std::string &name, double value)
{
    metrics.emplace_back(name, value);
}

void
BenchReport::write() const
{
    if (opts.jsonPath.empty())
        return;

    Json root = Json::object();
    root["schema"] = "rbsim-bench-1";
    root["bench"] = bench;
    root["scale"] = opts.scale;
    root["scheduler"] = opts.scheduler;

    Json machines = Json::array();
    std::vector<std::string> seen;
    for (const Cell &c : cells) {
        bool dup = false;
        for (const std::string &m : seen)
            dup = dup || m == c.machine;
        if (!dup) {
            seen.push_back(c.machine);
            machines.push(c.machine);
        }
    }
    root["machines"] = std::move(machines);

    Json cellArr = Json::array();
    for (const Cell &c : cells) {
        Json jc = Json::object();
        jc["machine"] = c.machine;
        jc["workload"] = c.workload;
        jc["ipc"] = cellIpc(c);
        jc["host_ms"] = c.result.hostSeconds * 1e3;
        jc["sim_khz"] = c.result.simKhz();
        if (c.sampled) {
            jc["sampled"] = true;
            jc["ci95"] = c.ci95;
            jc["windows"] = c.windows;
        }
        jc["stats"] = c.result.stats.toJson();
        if (c.profiled) {
            Json prof = Json::object();
            Json stages = Json::object();
            for (unsigned s = 0; s < HostProfiler::NumStages; ++s) {
                stages[HostProfiler::stageName(s)] =
                    c.profiler.seconds(s) * 1e3; // milliseconds
            }
            prof["stage_ms"] = std::move(stages);
            prof["allocations"] = c.profiler.allocations;
            prof["allocations_counted"] = c.profiler.allocationsCounted;
            jc["profile"] = std::move(prof);
        }
        cellArr.push(std::move(jc));
    }
    root["cells"] = std::move(cellArr);

    Json summary = Json::object();
    Json hmeans = Json::object();
    for (const std::string &m : seen) {
        std::vector<double> ipcs;
        for (const Cell &c : cells) {
            if (c.machine == m)
                ipcs.push_back(cellIpc(c));
        }
        hmeans[m] = harmonicMean(ipcs);
    }
    summary["hmean_ipc"] = std::move(hmeans);
    Json hspeed = Json::object();
    for (const std::string &m : seen) {
        std::vector<double> khz;
        for (const Cell &c : cells) {
            if (c.machine == m)
                khz.push_back(c.result.simKhz());
        }
        hspeed[m] = harmonicMean(khz);
    }
    summary["hmean_sim_khz"] = std::move(hspeed);
    Json jmetrics = Json::object();
    for (const auto &[name, v] : metrics)
        jmetrics[name] = v;
    summary["metrics"] = std::move(jmetrics);
    root["summary"] = std::move(summary);

    std::ofstream out(opts.jsonPath);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", opts.jsonPath.c_str());
        std::exit(1);
    }
    out << root.dump(2) << '\n';
}

Cell
throughputCell(const std::string &machine, const std::string &workload,
               std::uint64_t ops, double seconds)
{
    Cell cell;
    cell.machine = machine;
    cell.workload = workload;
    cell.result.machine = machine;
    cell.result.workload = workload;
    cell.result.halted = true;
    cell.result.hostSeconds = seconds;
    cell.result.stats.counters["core.cycles"] = ops;
    cell.result.stats.formulas["core.ipc"] = 1.0;
    return cell;
}

// --------------------------------------------------------------- sweep

namespace
{

/** Machine/workload label as a filename fragment. */
std::string
cellTag(std::string s)
{
    for (char &c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '_') {
            c = '-';
        }
    }
    return s;
}

struct Task
{
    const MachineConfig *cfg;
    const WorkloadInfo *wl;
};

std::vector<Cell>
sweep(const std::vector<MachineConfig> &configs,
      const std::vector<WorkloadInfo> &workloads, unsigned scale)
{
    std::vector<Task> tasks;
    for (const WorkloadInfo &w : workloads) {
        for (const MachineConfig &c : configs)
            tasks.push_back(Task{&c, &w});
    }

    // Per-cell host-side context: tracers write files, the profiler is
    // filled on the worker thread. Pre-constructed here so the specs can
    // borrow stable pointers for the batch's lifetime.
    struct CellCtx
    {
        std::ofstream traceOut;
        std::unique_ptr<trace::Tracer> tracer;
        std::string cellFile;
        HostProfiler prof;
    };
    std::vector<CellCtx> ctx(tasks.size());
    std::vector<serve::JobSpec> specs(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        WorkloadParams wp;
        wp.scale = scale;
        Program prog = tasks[i].wl->build(wp);
        const MachineConfig cfg = applyScheduler(*tasks[i].cfg);

        // Per-cell pipeline tracing (--trace / --trace-last). The
        // tracer is only constructed when asked for, so ordinary
        // benchmarking keeps the untraced hot path.
        if (!g_trace_prefix.empty() || g_trace_last) {
            const std::string prefix = g_trace_prefix.empty()
                ? std::string("rbsim-bench-fail")
                : g_trace_prefix;
            ctx[i].cellFile = prefix + "." + cellTag(cfg.label) + "." +
                              cellTag(tasks[i].wl->name) + ".trace";
            trace::Tracer::Options topts;
            if (!g_trace_last) {
                ctx[i].traceOut.open(ctx[i].cellFile);
                if (ctx[i].traceOut)
                    topts.stream = &ctx[i].traceOut;
            }
            topts.ringCap = g_trace_last;
            ctx[i].tracer = std::make_unique<trace::Tracer>(topts);
        }

        specs[i].cfg = cfg;
        specs[i].prog = std::move(prog);
        specs[i].opts.tracer = ctx[i].tracer.get();
        if (g_profile)
            specs[i].opts.profiler = &ctx[i].prof;
        // Traced/profiled cells must actually execute to produce their
        // host-side artifacts.
        specs[i].bypassCache =
            specs[i].opts.tracer || specs[i].opts.profiler;
    }

    const std::vector<serve::JobOutcome> outcomes =
        serve::SimService::instance().runBatch(std::move(specs));

    std::vector<Cell> cells(tasks.size());
    bool failed = false;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        auto dump_ring = [&]() {
            if (!ctx[i].tracer || !g_trace_last)
                return;
            std::ofstream out(ctx[i].cellFile);
            out << ctx[i].tracer->renderRing();
            std::fprintf(stderr,
                         "pipeline trace of last %zu instructions: %s\n",
                         ctx[i].tracer->ring().size(),
                         ctx[i].cellFile.c_str());
        };
        if (!outcomes[i].ok) {
            std::fprintf(stderr, "bench cell %s/%s failed: %s\n",
                         tasks[i].cfg->label.c_str(),
                         tasks[i].wl->name.c_str(),
                         outcomes[i].error.c_str());
            dump_ring();
            failed = true;
            continue;
        }
        if (!outcomes[i].result.halted)
            dump_ring();
        cells[i].machine = tasks[i].cfg->label;
        cells[i].workload = tasks[i].wl->name;
        cells[i].result = outcomes[i].result;
        if (g_profile) {
            cells[i].profiler = ctx[i].prof;
            cells[i].profiled = true;
        }
    }
    if (failed)
        std::exit(1);
    return cells;
}

} // namespace

std::vector<Cell>
sweepSuite(const std::vector<MachineConfig> &configs,
           const std::string &suite, unsigned scale)
{
    return sweep(configs, suiteWorkloads(suite), scale);
}

std::vector<Cell>
sweepAll(const std::vector<MachineConfig> &configs, unsigned scale)
{
    return sweep(configs, allWorkloads(), scale);
}

std::vector<Cell>
sweepWorkloads(const std::vector<MachineConfig> &configs,
               const std::vector<WorkloadInfo> &workloads, unsigned scale)
{
    return sweep(configs, workloads, scale);
}

// ------------------------------------------------------------- figures

void
printIpcFigure(const std::string &title,
               const std::vector<MachineConfig> &configs,
               const std::vector<Cell> &cells,
               const std::vector<WorkloadInfo> &workloads)
{
    std::printf("%s", banner(title).c_str());

    TextTable table;
    std::vector<std::string> head{"benchmark"};
    for (const MachineConfig &c : configs)
        head.push_back(c.label);
    table.header(head);

    std::vector<std::vector<double>> per_machine(configs.size());
    std::size_t i = 0;
    for (const WorkloadInfo &w : workloads) {
        std::vector<std::string> row{w.name};
        for (std::size_t m = 0; m < configs.size(); ++m, ++i) {
            const double ipc = cells[i].result.ipc();
            row.push_back(fmtDouble(ipc, 3));
            per_machine[m].push_back(ipc);
        }
        table.row(row);
    }

    std::vector<std::string> hrow{"hmean"};
    std::vector<std::string> arow{"amean"};
    std::vector<double> ameans;
    for (const auto &col : per_machine) {
        hrow.push_back(fmtDouble(harmonicMean(col), 3));
        arow.push_back(fmtDouble(arithmeticMean(col), 3));
        ameans.push_back(arithmeticMean(col));
    }
    table.row(hrow);
    table.row(arow);
    std::printf("%s\n", table.render().c_str());

    // Bar view of the means (the look of the paper's figures).
    double maxmean = 0;
    for (double m : ameans)
        maxmean = std::max(maxmean, m);
    for (std::size_t m = 0; m < configs.size(); ++m) {
        std::printf("  %-12s |%s| %.3f\n", configs[m].label.c_str(),
                    textBar(ameans[m], maxmean, 44).c_str(), ameans[m]);
    }
    std::printf("\n");

    // Per-stage cycle accounting: where each machine's cycles go,
    // summed over the suite. retire-idle / fetch-idle are the share of
    // cycles with zero instructions through that stage; hole-wait is
    // entry-cycles spent blocked only on bypass-availability holes.
    TextTable acct;
    acct.header({"machine", "retire-idle", "fetch-idle", "icache-stall",
                 "hole-wait/kcyc", "issue-wait (cyc)"});
    for (std::size_t m = 0; m < configs.size(); ++m) {
        std::uint64_t cycles = 0, retire_idle = 0, fetch_idle = 0,
                      icache = 0, hole = 0, wait_sum = 0, retired = 0;
        for (std::size_t c = m; c < cells.size(); c += configs.size()) {
            const SimResult &r = cells[c].result;
            cycles += r.counter("core.cycles");
            retire_idle += r.vec("core.retireSlots")[0];
            fetch_idle += r.vec("core.fetchSlots")[0];
            icache += r.counter("fetch.icacheStallCycles");
            hole += r.counter("core.holeWaitCycles");
            wait_sum += r.counter("core.issueWaitSum");
            retired += r.counter("core.retired");
        }
        const double cyc = cycles ? double(cycles) : 1.0;
        acct.row({configs[m].label,
                  fmtDouble(100.0 * double(retire_idle) / cyc, 1) + "%",
                  fmtDouble(100.0 * double(fetch_idle) / cyc, 1) + "%",
                  fmtDouble(100.0 * double(icache) / cyc, 1) + "%",
                  fmtDouble(1000.0 * double(hole) / cyc, 1),
                  fmtDouble(retired ? double(wait_sum) / double(retired)
                                    : 0.0,
                            2)});
    }
    std::printf("Per-stage cycle accounting (suite totals):\n%s\n",
                acct.render().c_str());

    // Host simulation speed: how fast the simulator itself ran. sim_khz
    // is simulated kilocycles per host-wall-clock second; the harmonic
    // mean matches the per-machine summary in the JSON dump.
    TextTable speed;
    speed.header({"machine", "host total", "hmean sim speed"});
    for (std::size_t m = 0; m < configs.size(); ++m) {
        double host = 0.0;
        std::vector<double> khz;
        for (std::size_t c = m; c < cells.size(); c += configs.size()) {
            host += cells[c].result.hostSeconds;
            khz.push_back(cells[c].result.simKhz());
        }
        speed.row({configs[m].label, fmtDouble(host, 2) + " s",
                   fmtSimSpeed(harmonicMean(khz))});
    }
    std::printf("Host simulation speed:\n%s\n", speed.render().c_str());

    // Host-time per-stage profile (--profile): where the simulator's own
    // wall time goes, summed over the suite. exec/lsq are subsets of
    // select, cosim a subset of commit (common/hostprof.hh).
    bool any_profiled = false;
    for (const Cell &c : cells)
        any_profiled = any_profiled || c.profiled;
    if (!any_profiled)
        return;
    TextTable prof;
    std::vector<std::string> phead{"machine"};
    for (unsigned s = 0; s < HostProfiler::NumStages; ++s)
        phead.push_back(HostProfiler::stageName(s));
    phead.push_back("allocs");
    prof.header(phead);
    for (std::size_t m = 0; m < configs.size(); ++m) {
        std::array<double, HostProfiler::NumStages> sec{};
        std::uint64_t allocs = 0;
        bool counted = false;
        for (std::size_t c = m; c < cells.size(); c += configs.size()) {
            if (!cells[c].profiled)
                continue;
            for (unsigned s = 0; s < HostProfiler::NumStages; ++s)
                sec[s] += cells[c].profiler.seconds(s);
            allocs += cells[c].profiler.allocations;
            counted = counted || cells[c].profiler.allocationsCounted;
        }
        std::vector<std::string> row{configs[m].label};
        for (unsigned s = 0; s < HostProfiler::NumStages; ++s)
            row.push_back(fmtDouble(sec[s] * 1e3, 0) + " ms");
        row.push_back(counted ? std::to_string(allocs) : "n/a");
        prof.row(row);
    }
    std::printf("Host per-stage profile (--profile; exec/lsq within "
                "select, cosim within commit):\n%s\n",
                prof.render().c_str());
}

void
printHeadline(const std::vector<MachineConfig> &configs,
              const std::vector<Cell> &cells,
              const std::string &paper_note)
{
    // The comparison only makes sense on the full Baseline / RB-limited
    // / RB-full / Ideal grid; a --machines filter drops it.
    if (configs.size() != 4)
        return;
    std::vector<double> mean(configs.size(), 0.0);
    std::vector<unsigned> count(configs.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::size_t m = i % configs.size();
        mean[m] += cells[i].result.ipc();
        ++count[m];
    }
    for (std::size_t m = 0; m < mean.size(); ++m)
        mean[m] /= count[m];
    // Order: Baseline, RB-limited, RB-full, Ideal.
    const double base = mean[0], rblim = mean[1], rbfull = mean[2],
                 ideal = mean[3];
    std::printf("measured: RB-full %+.1f%% vs Baseline; %+.1f%% vs "
                "Ideal; RB-limited %+.1f%% vs RB-full; Ideal %+.1f%% vs "
                "Baseline\n",
                100 * (rbfull / base - 1), 100 * (rbfull / ideal - 1),
                100 * (rblim / rbfull - 1), 100 * (ideal / base - 1));
    std::printf("paper:    %s\n\n", paper_note.c_str());
}

std::vector<MachineConfig>
paperMachines(unsigned width)
{
    return {MachineConfig::make(MachineKind::Baseline, width),
            MachineConfig::make(MachineKind::RbLimited, width),
            MachineConfig::make(MachineKind::RbFull, width),
            MachineConfig::make(MachineKind::Ideal, width)};
}

} // namespace rbsim::bench
