/**
 * @file
 * rbsim-serve: the persistent simulation service (docs/SERVING.md).
 *
 *   rbsim-serve                    # JSON-lines on stdin/stdout
 *
 * Options:
 *   --workers <n>    worker threads (default: one per hardware thread)
 *   --cache <n>      result-cache entries (default 256; 0 disables)
 *   --max-insts <n>  static-instruction cap per program (default 1Mi)
 *   --max-scale <n>  workload scale cap (default 10000)
 *   --trace-ring <n> last-n instruction ring attached to aborted jobs'
 *                    error responses (default 64; 0 disables the ring)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/server.hh"

namespace
{

[[noreturn]] void
usageDie(const char *prog, const char *why)
{
    std::fprintf(stderr,
                 "%s: %s\n"
                 "usage: %s [--workers <n>] [--cache <n>] "
                 "[--max-insts <n>] [--max-scale <n>] [--trace-ring <n>]\n",
                 prog, why, prog);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    rbsim::serve::Server::Options opts;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *flag) -> long {
            if (i + 1 >= argc)
                usageDie(argv[0],
                         (std::string(flag) + " needs a value").c_str());
            char *end = nullptr;
            const long n = std::strtol(argv[++i], &end, 10);
            if (!end || *end || n < 0)
                usageDie(argv[0], (std::string(flag) +
                                   " wants a non-negative integer")
                                      .c_str());
            return n;
        };
        if (std::strcmp(arg, "--workers") == 0) {
            opts.service.workers = static_cast<unsigned>(value("--workers"));
        } else if (std::strcmp(arg, "--cache") == 0) {
            opts.service.cacheCapacity =
                static_cast<std::size_t>(value("--cache"));
        } else if (std::strcmp(arg, "--max-insts") == 0) {
            opts.maxProgramInsts =
                static_cast<std::size_t>(value("--max-insts"));
        } else if (std::strcmp(arg, "--max-scale") == 0) {
            opts.maxScale = static_cast<unsigned>(value("--max-scale"));
        } else if (std::strcmp(arg, "--trace-ring") == 0) {
            opts.traceLast = static_cast<unsigned>(value("--trace-ring"));
        } else {
            usageDie(argv[0],
                     (std::string("unknown flag ") + arg).c_str());
        }
    }

    return rbsim::serve::serveStdio(opts);
}
