/**
 * @file
 * Workload explorer: run any of the 20 SPEC-like benchmarks on one
 * machine and dump the paper-relevant microarchitectural detail — the
 * Table 1 classification of its dynamic stream, the Figure 13 bypass
 * cases, scheduler behaviour, and memory-system counters.
 *
 *   $ ./build/examples/workload_explorer [workload] [machine]
 *     workload: any of the registry names (default: crafty)
 *     machine:  base | rblim | rbfull | ideal, or a figure label such
 *               as RB-full (default: rbfull)
 */

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/scoreboard.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    using namespace rbsim;

    const std::string name = argc > 1 ? argv[1] : "crafty";
    const std::string machine = argc > 2 ? argv[2] : "rbfull";
    const std::optional<MachineKind> kind = machineKindFromName(machine);
    std::optional<WorkloadInfo> found;
    try {
        found = findWorkload(name);
    } catch (const std::out_of_range &e) {
        std::fprintf(stderr, "%s\n", e.what());
    }
    if (argc > 3 || !kind || !found) {
        std::fprintf(stderr,
                     "usage: %s [workload] [base|rblim|rbfull|ideal]\n",
                     argv[0]);
        return 2;
    }

    const WorkloadInfo &info = *found;
    const Program prog = info.build(WorkloadParams{});
    const MachineConfig cfg = MachineConfig::make(*kind, 8);
    const SimResult r = simulate(cfg, prog);

    std::printf("workload %s on %s (8-wide)\n", name.c_str(),
                cfg.label.c_str());
    std::printf("  %s\n\n", info.description.c_str());

    const StatSnapshot &s = r.stats;
    std::printf("cycles %llu, retired %llu, IPC %.3f (co-sim verified "
                "%llu)\n",
                static_cast<unsigned long long>(s.counter("core.cycles")),
                static_cast<unsigned long long>(s.counter("core.retired")), r.ipc(),
                static_cast<unsigned long long>(r.counter("cosim.checked")));
    std::printf("fetched %llu, squashed %llu, flushes %llu\n",
                static_cast<unsigned long long>(s.counter("core.fetched")),
                static_cast<unsigned long long>(s.counter("core.squashed")),
                static_cast<unsigned long long>(s.counter("core.flushes")));
    std::printf("cond branches %llu, mispredicted %.2f%%\n",
                static_cast<unsigned long long>(s.counter("core.condBranches")),
                100.0 * (1.0 - r.branchAccuracy()));
    std::printf("loads %llu (forwarded %llu), stores %llu\n",
                static_cast<unsigned long long>(s.counter("core.loads")),
                static_cast<unsigned long long>(s.counter("core.loadForwards")),
                static_cast<unsigned long long>(s.counter("core.stores")));
    std::printf("dl1 miss %.1f%%, l2 miss %.1f%%, DRAM accesses %llu\n",
                r.counter("dl1.accesses") ? 100.0 * r.counter("dl1.misses") / double(r.counter("dl1.accesses"))
                              : 0.0,
                r.counter("l2.accesses") ? 100.0 * r.counter("l2.misses") / double(r.counter("l2.accesses"))
                             : 0.0,
                static_cast<unsigned long long>(r.counter("mem.accesses")));
    std::printf("mean issue wait %.2f cycles; hole-blocked entry-cycles "
                "%llu\n",
                s.counter("core.retired") ? double(s.counter("core.issueWaitSum")) / double(s.counter("core.retired")) : 0,
                static_cast<unsigned long long>(s.counter("core.holeWaitCycles")));
    if (s.counter("core.rbPathExecs")) {
        std::printf("RB-datapath executions %llu (%.1f%% of retired); "
                    "bogus-overflow corrections %llu\n",
                    static_cast<unsigned long long>(s.counter("core.rbPathExecs")),
                    100.0 * double(s.counter("core.rbPathExecs")) / double(s.counter("core.retired")),
                    static_cast<unsigned long long>(
                        s.counter("core.rbBogusCorrections")));
    }

    std::printf("\nTable 1 classification of the retired stream:\n");
    for (unsigned i = 0; i < numTable1Rows; ++i) {
        if (s.vec("core.table1")[i] == 0)
            continue;
        std::printf("  %-55s %6.1f%%\n",
                    table1RowLabel(static_cast<Table1Row>(i)),
                    100.0 * double(s.vec("core.table1")[i]) / double(s.counter("core.retired")));
    }

    std::uint64_t bypass_total = 0;
    for (std::uint64_t v : s.vec("bypass.case"))
        bypass_total += v;
    if (bypass_total) {
        std::printf("\nFigure 13 bypass cases (last-arriving bypassed "
                    "operands):\n");
        for (unsigned i = 0; i < numBypassCases; ++i) {
            std::printf("  %-36s %6.1f%%\n",
                        bypassCaseName(static_cast<BypassCase>(i)),
                        100.0 * double(s.vec("bypass.case")[i]) /
                            double(bypass_total));
        }
        std::printf("  instructions with a bypassed source: %.1f%%\n",
                    100.0 * double(s.counter("core.withBypassedSource")) /
                        double(s.counter("core.retired")));
    }

    std::printf("\nbypass slot used by the last-arriving operand "
                "(cycles past first availability):\n");
    for (unsigned i = 0; i < s.vec("bypass.slot").size(); ++i) {
        if (s.vec("bypass.slot")[i] == 0)
            continue;
        std::printf("  +%u: %llu\n", i,
                    static_cast<unsigned long long>(s.vec("bypass.slot")[i]));
    }
    return 0;
}
