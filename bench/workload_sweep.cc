/**
 * @file
 * Sweep of the generated workloads (src/workloads/gen): zipfian key
 * access across a skew range, self-similar/uniform key access, the
 * three pointer-chase working-set levels, the branch-entropy sweep, and
 * the RB-adversarial shift->logical mode — on the paper's machine grid.
 *
 * Beyond the shared bench flags (bench_common.hh):
 *   --skews <csv>     zipfian skew points (default 0.5,0.6,...,0.99)
 *   --presets <csv>   sweep exactly these generator presets instead of
 *                     the default set (names per gen::genPreset: ycsb-a
 *                     .. ycsb-f, uniform, zipf-<s>, selfsim-<h>,
 *                     chase-dl1/l2/mem, branch-<r>, rb-adversarial)
 *   --width <n>       machine width (default 8)
 *
 * The locality table makes the acceptance property visible: the zipfian
 * skew sweep must produce monotonically falling DL1 miss rates (rising
 * key reuse) as skew grows.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/strutil.hh"
#include "sim/report.hh"
#include "workloads/gen/opstream.hh"

int
main(int argc, char **argv)
{
    using namespace rbsim;
    using namespace rbsim::bench;
    const BenchOptions opts = parseBenchArgs(argc, argv);

    std::vector<double> skews;
    std::vector<std::string> presets;
    unsigned width = 8;
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--skews") == 0) {
            for (const std::string &s : splitTokens(value("--skews"), ","))
                skews.push_back(std::stod(s));
        } else if (std::strcmp(argv[i], "--presets") == 0) {
            presets = splitTokens(value("--presets"), ",");
        } else if (std::strcmp(argv[i], "--width") == 0) {
            width = static_cast<unsigned>(
                std::strtoul(value("--width"), nullptr, 10));
        } else {
            std::fprintf(stderr,
                         "unknown flag %s (see workload_sweep.cc)\n",
                         argv[i]);
            return 2;
        }
    }

    std::vector<gen::GenConfig> genConfigs;
    if (!presets.empty()) {
        for (const std::string &p : presets)
            genConfigs.push_back(gen::genPreset(p));
    } else {
        genConfigs = gen::genSweepConfigs(skews);
    }
    std::vector<WorkloadInfo> workloads;
    for (const gen::GenConfig &c : genConfigs)
        workloads.push_back(gen::genWorkloadInfo(c));

    const auto configs = filterMachines(paperMachines(width), opts);
    const auto cells = sweepWorkloads(configs, workloads, opts.scale);

    printIpcFigure("Generated-workload sweep, " + std::to_string(width) +
                       "-wide machines",
                   configs, cells, workloads);

    // Locality/entropy per workload, from the first machine's cells
    // (cache geometry is identical across the grid).
    TextTable loc;
    loc.header({"workload", "dl1 access", "dl1 miss%", "l2 miss%",
                "br accuracy"});
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const SimResult &r = cells[w * configs.size()].result;
        const auto miss = [&r](const char *grp) {
            const double acc =
                double(r.counter(std::string(grp) + ".accesses"));
            return acc > 0
                ? 100.0 * double(r.counter(std::string(grp) + ".misses")) /
                      acc
                : 0.0;
        };
        loc.row({workloads[w].name,
                 std::to_string(r.counter("dl1.accesses")),
                 fmtDouble(miss("dl1"), 1), fmtDouble(miss("l2"), 1),
                 fmtDouble(r.branchAccuracy(), 3)});
    }
    std::printf("Locality and branch behaviour (%s):\n%s\n",
                configs.front().label.c_str(), loc.render().c_str());

    BenchReport report("workload_sweep", opts);
    report.addCells(cells);
    report.write();
    return 0;
}
