/**
 * @file
 * rbsim's command-line runner: assemble a TinyAlpha .s file and run it
 * on any machine configuration, with per-run statistics.
 *
 *   usage: run_asm FILE.s [options]
 *     --machine base|rblim|rbfull|ideal   (default rbfull; the figure
 *                                         labels, e.g. RB-full, also work)
 *     --width 4|8|16                      (default 8)
 *     --no-levels 1,2,3                   remove bypass levels (Ideal)
 *     --no-hole-sched                     disable Fig. 8 hole wakeup
 *     --steer-dep                         dependence-aware steering
 *     --scale-cluster N                   cross-cluster delay (default 1)
 *     --max-cycles N                      safety cap (default 100M)
 *     --dump-mem ADDR,N                   print N quadwords at ADDR
 *     --trace FILE                        O3PipeView pipeline trace
 *                                         (load in Konata)
 *     --trace-last N                      ring-buffer the last N insts,
 *                                         dumped on failure (to FILE if
 *                                         --trace given, else stderr)
 *
 * Example:
 *   ./build/examples/run_asm prog.s --machine rblim --width 4
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "isa/assembler.hh"
#include "sim/simulator.hh"
#include "trace/tracer.hh"

namespace
{

using namespace rbsim;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s FILE.s [--machine base|rblim|rbfull|ideal] "
                 "[--width 4|8|16]\n"
                 "          [--no-levels 1,2,3] [--no-hole-sched] "
                 "[--steer-dep]\n"
                 "          [--scale-cluster N] [--max-cycles N] "
                 "[--dump-mem ADDR,N]\n"
                 "          [--trace FILE] [--trace-last N]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);

    MachineKind kind = MachineKind::RbFull;
    unsigned width = 8;
    std::uint8_t level_mask = 0b111;
    bool limited_levels = false;
    bool hole_sched = true;
    bool steer_dep = false;
    unsigned cluster_delay = 1;
    Cycle max_cycles = 100'000'000;
    Addr dump_addr = 0;
    unsigned dump_count = 0;
    std::string trace_file;
    std::size_t trace_last = 0;

    const char *path = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--machine") {
            const std::optional<MachineKind> k = machineKindFromName(next());
            if (!k)
                usage(argv[0]);
            kind = *k;
        } else if (arg == "--width") {
            width = static_cast<unsigned>(std::atoi(next()));
            if (width != 4 && width != 8 && width != 16)
                usage(argv[0]);
        } else if (arg == "--no-levels") {
            limited_levels = true;
            for (const char *p = next(); *p; ++p) {
                if (*p >= '1' && *p <= '3')
                    level_mask &= static_cast<std::uint8_t>(
                        ~(1u << (*p - '1')));
            }
        } else if (arg == "--no-hole-sched") {
            hole_sched = false;
        } else if (arg == "--steer-dep") {
            steer_dep = true;
        } else if (arg == "--scale-cluster") {
            cluster_delay = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--max-cycles") {
            max_cycles = static_cast<Cycle>(std::atoll(next()));
        } else if (arg == "--trace") {
            trace_file = next();
        } else if (arg == "--trace-last") {
            trace_last = static_cast<std::size_t>(std::atoll(next()));
        } else if (arg == "--dump-mem") {
            const char *spec = next();
            char *comma = nullptr;
            dump_addr = std::strtoull(spec, &comma, 0);
            if (comma && *comma == ',')
                dump_count = static_cast<unsigned>(
                    std::atoi(comma + 1));
        } else {
            usage(argv[0]);
        }
    }

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 1;
    }
    std::stringstream source;
    source << in.rdbuf();

    Program prog;
    try {
        prog = assemble(source.str());
    } catch (const AsmError &e) {
        std::fprintf(stderr, "%s: %s\n", path, e.what());
        return 1;
    }

    MachineConfig cfg = limited_levels && kind == MachineKind::Ideal
        ? MachineConfig::makeIdealLimited(width, level_mask)
        : MachineConfig::make(kind, width);
    cfg.holeAwareScheduling = hole_sched;
    cfg.crossClusterDelay = cluster_delay;
    if (steer_dep)
        cfg.steering = Steering::DependenceAware;

    SimOptions opts;
    opts.maxCycles = max_cycles;

    std::ofstream trace_out;
    std::unique_ptr<trace::Tracer> tracer;
    if (!trace_file.empty() || trace_last) {
        trace::Tracer::Options topts;
        if (!trace_file.empty() && !trace_last) {
            trace_out.open(trace_file);
            if (!trace_out) {
                std::fprintf(stderr, "cannot open %s\n",
                             trace_file.c_str());
                return 1;
            }
            topts.stream = &trace_out;
        }
        topts.ringCap = trace_last;
        tracer = std::make_unique<trace::Tracer>(topts);
        opts.tracer = tracer.get();
    }

    // On failure (cosim mismatch, deadlock, cycle budget): dump the
    // ring buffer of the last N instructions to FILE or stderr.
    auto dump_ring = [&]() {
        if (!tracer || !trace_last)
            return;
        const std::string doc = tracer->renderRing();
        if (!trace_file.empty()) {
            std::ofstream out(trace_file);
            out << doc;
            std::fprintf(stderr,
                         "pipeline trace of last %zu instructions: %s\n",
                         tracer->ring().size(), trace_file.c_str());
        } else {
            std::fprintf(stderr,
                         "pipeline trace of last %zu instructions:\n%s",
                         tracer->ring().size(), doc.c_str());
        }
    };

    // The simulator keeps the run's machine, so --dump-mem reads the
    // committed memory the run left.
    Simulator sim(cfg);
    SimResult r;
    try {
        r = sim.run(prog, opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simulation failed: %s\n", e.what());
        dump_ring();
        return 1;
    }

    std::printf("%s (%zu static insts) on %s %u-wide\n",
                prog.name.c_str(), prog.code.size(), cfg.label.c_str(),
                width);
    if (!r.halted) {
        std::printf("DID NOT HALT within %llu cycles\n",
                    static_cast<unsigned long long>(max_cycles));
        dump_ring();
        return 1;
    }
    std::printf("cycles %llu  retired %llu  IPC %.3f  (verified %llu)\n",
                static_cast<unsigned long long>(r.counter("core.cycles")),
                static_cast<unsigned long long>(r.counter("core.retired")), r.ipc(),
                static_cast<unsigned long long>(r.counter("cosim.checked")));
    std::printf("branch accuracy %.2f%%  flushes %llu  dl1 miss %.1f%%"
                "  l2 miss %.1f%%\n",
                100.0 * r.branchAccuracy(),
                static_cast<unsigned long long>(r.counter("core.flushes")),
                r.counter("dl1.accesses")
                    ? 100.0 * r.counter("dl1.misses") / double(r.counter("dl1.accesses")) : 0.0,
                r.counter("l2.accesses")
                    ? 100.0 * r.counter("l2.misses") / double(r.counter("l2.accesses")) : 0.0);

    if (dump_count) {
        std::printf("\nmemory at 0x%llx:\n",
                    static_cast<unsigned long long>(dump_addr));
        for (unsigned i = 0; i < dump_count; ++i) {
            std::printf("  +%3u: 0x%016llx\n", i * 8,
                        static_cast<unsigned long long>(
                            sim.committedMem().read64(dump_addr + i * 8)));
        }
    }
    return 0;
}
