/**
 * @file
 * rbsim-fuzz: differential fuzzing front end.
 *
 *   rbsim-fuzz --seconds 30                  # both oracles, 30 s
 *   rbsim-fuzz --oracle cosim --iterations 50
 *   rbsim-fuzz --jobs 8 --seed 7 --corpus-dir out/
 *   rbsim-fuzz --replay tests/corpus/foo.repro
 *   rbsim-fuzz --replay foo.repro --trace foo.pipeview
 *   rbsim-fuzz --plant sched-bypass-widen --iterations 4
 *
 * Exit status: 0 when every case passed (or every replay passed),
 * 1 on failures (including unreadable/unknown-oracle repros),
 * 2 on usage errors.
 */

#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/corpus.hh"
#include "fuzz/fuzzer.hh"

namespace
{

using namespace rbsim;
using namespace rbsim::fuzz;

void
usage(std::ostream &os)
{
    os << "usage: rbsim-fuzz [options]\n"
          "  --seconds <s>      wall-clock budget\n"
          "  --iterations <n>   case budget (default 100 when no budget "
          "given)\n"
          "  --jobs <n>         worker threads (default 1)\n"
          "  --seed <n>         master seed (default 1)\n"
          "  --oracle <name>    restrict to one oracle (repeatable; "
          "default all)\n"
          "  --preset <name>    generator bias preset (default/memory/"
          "branchy/arith,\n"
          "                     or a workload-stream family: ycsb/"
          "pointer-chase/\n"
          "                     branch-entropy/rb-adversarial)\n"
          "  --corpus-dir <d>   write shrunk repro files into <d>\n"
          "  --max-failures <n> repros kept per oracle (default 3)\n"
          "  --plant <name>     inject a known bug (sched-bypass-widen, "
          "cosim-opcode-pair)\n"
          "  --max-insts <n>    cosim: cap the detailed window per case "
          "at n retired\n"
          "                     instructions (recorded in minted "
          "repros)\n"
          "  --resume-skip <n>  cosim: fast-forward n instructions "
          "(checkpoint\n"
          "                     capture + resume) before the detailed "
          "window\n"
          "  --no-shrink        skip delta-debugging of failures\n"
          "  --json             print a JSON summary instead of text\n"
          "  --replay <file>    replay repro files instead of fuzzing "
          "(repeatable)\n"
          "  --trace <file>     replay: write an O3PipeView pipeline "
          "trace per\n"
          "                     simulated machine (<file>.<machine>; "
          "load in Konata)\n"
          "  --trace-last <n>   replay: ring-buffer the last n "
          "instructions and\n"
          "                     dump them to <repro>.trace on failure\n"
          "  --list-oracles     print oracle names and exit\n";
}

int
replayFiles(const std::vector<std::string> &files, Plant plant,
            bool json, const std::string &traceFile,
            std::size_t traceLast)
{
    unsigned failed = 0;
    for (const std::string &path : files) {
        TraceSpec spec;
        if (!traceFile.empty()) {
            // With several repros, keep the per-machine trace files of
            // each one apart by suffixing the repro's stem.
            spec.streamPath = traceFile;
            if (files.size() > 1) {
                const std::size_t slash = path.find_last_of('/');
                spec.streamPath +=
                    "." + path.substr(slash == std::string::npos
                                          ? 0 : slash + 1);
            }
        }
        if (traceLast) {
            spec.ringLast = traceLast;
            spec.ringPath = path + ".trace";
        }
        // An unreadable or malformed repro fails that file only; the
        // remaining replays still run.
        const OracleResult r = replayReproFile(path, plant, spec);
        if (!json) {
            std::cout << (r.failed ? "FAIL " : "ok   ") << path;
            if (r.failed)
                std::cout << "\n  " << r.detail;
            std::cout << "\n";
        }
        failed += r.failed ? 1 : 0;
    }
    if (json) {
        std::cout << "{\"replayed\": " << files.size()
                  << ", \"failed\": " << failed << "}\n";
    }
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzOptions opts;
    std::vector<std::string> replays;
    bool json = false;
    std::string trace_file;
    std::size_t trace_last = 0;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc) {
                    throw std::invalid_argument("missing value for " +
                                                arg);
                }
                return argv[++i];
            };
            if (arg == "--seconds") {
                opts.seconds = std::stod(value());
            } else if (arg == "--iterations") {
                opts.iterations = std::stoull(value());
            } else if (arg == "--jobs") {
                opts.jobs = static_cast<unsigned>(std::stoul(value()));
            } else if (arg == "--seed") {
                opts.seed = std::stoull(value(), nullptr, 0);
            } else if (arg == "--oracle") {
                opts.oracles.push_back(value());
            } else if (arg == "--preset") {
                opts.gen = GenOptions::preset(value());
            } else if (arg == "--corpus-dir") {
                opts.corpusDir = value();
            } else if (arg == "--max-failures") {
                opts.maxFailures =
                    static_cast<unsigned>(std::stoul(value()));
            } else if (arg == "--plant") {
                opts.plant = parsePlant(value());
            } else if (arg == "--max-insts") {
                opts.maxInsts = std::stoull(value());
            } else if (arg == "--resume-skip") {
                opts.resumeSkip = std::stoull(value());
            } else if (arg == "--no-shrink") {
                opts.shrink = false;
            } else if (arg == "--json") {
                json = true;
            } else if (arg == "--replay") {
                replays.push_back(value());
            } else if (arg == "--trace") {
                trace_file = value();
            } else if (arg == "--trace-last") {
                trace_last = std::stoull(value());
            } else if (arg == "--list-oracles") {
                for (const std::string &n : oracleNames())
                    std::cout << n << "\n";
                return 0;
            } else if (arg == "--help" || arg == "-h") {
                usage(std::cout);
                return 0;
            } else {
                throw std::invalid_argument("unknown option " + arg);
            }
        }

        if (!replays.empty()) {
            return replayFiles(replays, opts.plant, json, trace_file,
                               trace_last);
        }

        const FuzzSummary summary = runFuzz(opts);
        std::cout << (json ? summary.toJson() + "\n" : summary.format());
        return summary.ok() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "rbsim-fuzz: " << e.what() << "\n";
        usage(std::cerr);
        return 2;
    }
}
