/**
 * @file
 * SMARTS sampling demonstration and acceptance harness
 * (docs/PERFORMANCE.md): run workloads on the Figure 12 machine grid
 * both sampled (checkpointed fast-forward + detailed windows sharded
 * across the worker pool) and — under --verify — in full detail, and
 * report mean IPC with its 95% CI next to the exact number.
 *
 * Extra flags on top of the shared bench set:
 *   --windows <n>     target number of measured windows (default 10);
 *                     the period is the workload's dynamic length / n,
 *                     with a quarter-period detailed warmup and a
 *                     half-period measured window
 *   --workloads <csv> workload-name filter (default: whole suite)
 *   --suite <name>    workload suite (default "spec95")
 *   --verify          also run every cell in full detail and exit 1 if
 *                     any |sampled - full| exceeds the reported 95% CI
 *                     (the repo's sampled-vs-full acceptance gate)
 *
 * The JSON dump's sampled cells carry "ci95"/"windows", which switches
 * scripts/bench_diff.py to its CI-overlap gate for those cells.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "func/interp.hh"
#include "serve/sampled.hh"
#include "serve/service.hh"
#include "sim/sampling.hh"

namespace
{

std::uint64_t
dynLength(const rbsim::Program &prog)
{
    rbsim::Interp interp(prog);
    while (!interp.halted())
        interp.run(1u << 20);
    return interp.instsExecuted();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rbsim;
    using namespace rbsim::bench;
    BenchOptions opts = parseBenchArgs(argc, argv);

    std::uint64_t windows = 10;
    std::string suite = "spec95";
    std::vector<std::string> workloadFilter;
    bool verify = false;
    for (int i = 1; i < argc;) {
        const auto take = [&](const char *flag, std::string &into) {
            if (std::strcmp(argv[i], flag) != 0)
                return false;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            into = argv[i + 1];
            for (int j = i; j + 2 < argc; ++j)
                argv[j] = argv[j + 2];
            argc -= 2;
            return true;
        };
        std::string v;
        if (std::strcmp(argv[i], "--verify") == 0) {
            verify = true;
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
        } else if (take("--windows", v)) {
            windows = std::strtoull(v.c_str(), nullptr, 10);
            if (!windows) {
                std::fprintf(stderr, "--windows must be positive\n");
                return 2;
            }
        } else if (take("--suite", v)) {
            suite = v;
        } else if (take("--workloads", v)) {
            std::size_t start = 0;
            while (start <= v.size()) {
                const std::size_t comma = v.find(',', start);
                const std::size_t end =
                    comma == std::string::npos ? v.size() : comma;
                if (end > start)
                    workloadFilter.push_back(
                        v.substr(start, end - start));
                start = end + 1;
            }
        } else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        }
    }

    std::vector<MachineConfig> configs =
        filterMachines(paperMachines(4), opts);
    for (MachineConfig &cfg : configs)
        cfg.wakeupOracle = opts.scheduler == "oracle";

    std::vector<WorkloadInfo> suiteList = suiteWorkloads(suite);
    std::vector<WorkloadInfo> workloads;
    for (const WorkloadInfo &wl : suiteList) {
        bool keep = workloadFilter.empty();
        for (const std::string &name : workloadFilter)
            keep = keep || wl.name == name;
        if (keep)
            workloads.push_back(wl);
    }
    if (workloads.empty()) {
        std::fprintf(stderr, "no workloads selected\n");
        return 2;
    }

    serve::SimService &service = serve::SimService::instance();
    BenchReport report("sampled_sweep", opts);
    unsigned ciMisses = 0;

    std::printf("SMARTS sampling, %llu-window regimen, %s scheduler "
                "(%u workers)\n",
                static_cast<unsigned long long>(windows),
                opts.scheduler.c_str(), service.workers());
    std::printf("%-12s %-10s %10s %14s %8s %10s %10s\n", "machine",
                "workload", verify ? "full-ipc" : "-", "sampled-ipc",
                "windows", "ff-insts", "host-ms");

    for (const WorkloadInfo &wl : workloads) {
        WorkloadParams wp;
        wp.scale = opts.scale;
        const Program prog = wl.build(wp);
        const std::uint64_t len = dynLength(prog);

        SamplingOptions sopts;
        sopts.periodInsts =
            std::max<std::uint64_t>(len / windows, 64);
        sopts.warmupInsts = sopts.periodInsts / 4;
        sopts.measureInsts = sopts.periodInsts / 2;

        for (const MachineConfig &cfg : configs) {
            const serve::SampledOutcome sampled =
                serve::runSampled(service, cfg, prog, sopts);
            if (!sampled.ok) {
                std::fprintf(stderr, "%s/%s: %s\n", cfg.label.c_str(),
                             wl.name.c_str(), sampled.error.c_str());
                return 1;
            }
            report.addCell(sampledCell(sampled.result));

            char fullCol[16] = "-";
            if (verify) {
                const SimResult full = simulate(cfg, prog);
                std::snprintf(fullCol, sizeof(fullCol), "%.4f",
                              full.ipc());
                const double err =
                    full.ipc() > sampled.result.ipcMean
                        ? full.ipc() - sampled.result.ipcMean
                        : sampled.result.ipcMean - full.ipc();
                if (err > sampled.result.ipcCi95) {
                    ++ciMisses;
                    std::fprintf(stderr,
                                 "%s/%s: sampled %.4f +/- %.4f misses "
                                 "full %.4f\n",
                                 cfg.label.c_str(), wl.name.c_str(),
                                 sampled.result.ipcMean,
                                 sampled.result.ipcCi95, full.ipc());
                }
            }
            std::printf("%-12s %-10s %10s %7.4f +/- %.4f %5llu %10llu "
                        "%10.1f\n",
                        cfg.label.c_str(), wl.name.c_str(), fullCol,
                        sampled.result.ipcMean, sampled.result.ipcCi95,
                        static_cast<unsigned long long>(
                            sampled.result.windows),
                        static_cast<unsigned long long>(
                            sampled.result.ffInsts),
                        sampled.result.hostSeconds * 1e3);
        }
    }

    report.write();
    if (ciMisses) {
        std::fprintf(stderr,
                     "sampled_sweep: FAIL — %u cell(s) outside the "
                     "reported 95%% CI\n",
                     ciMisses);
        return 1;
    }
    if (verify)
        std::printf("sampled_sweep: every sampled cell within its 95%% "
                    "CI of the full-detail IPC\n");
    return 0;
}
