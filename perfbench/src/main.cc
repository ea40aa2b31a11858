/**
 * @file
 * rbperf: the repository benchmark's measuring program.
 *
 *   rbperf run <workload> --seed N --seconds S --trace 0|1 --out FILE
 *          [--spans FILE] [--requests FILE --block N]
 *   rbperf refs --seed N --out FILE
 *
 * `run` measures one workload (detailed-grid, sampled-long, serve-jobs)
 * and writes its raw results; `refs` computes the full-detail reference
 * IPCs sampled-long is checked against. perfbench/run.py drives both.
 */

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common.hh"

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: rbperf run <detailed-grid|sampled-long|serve-jobs> "
                 "--seed N --seconds S --trace 0|1 --out FILE [--spans FILE] "
                 "[--requests FILE --block N]\n"
                 "       rbperf refs --seed N --out FILE\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rbperf;
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    std::string workload;
    int i = 2;
    if (cmd == "run") {
        if (argc < 3)
            return usage();
        workload = argv[2];
        i = 3;
    } else if (cmd != "refs") {
        return usage();
    }

    RunOptions opts;
    std::string out_path;
    for (; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (!std::isdigit(static_cast<unsigned char>(v[0])) &&
            (k == "--seed" || k == "--seconds" || k == "--block"))
            return usage();
        if (k == "--seed")
            opts.seed = std::stoull(v);
        else if (k == "--seconds")
            opts.seconds = std::stod(v);
        else if (k == "--trace")
            opts.trace = std::strcmp(v, "0") != 0;
        else if (k == "--out")
            out_path = v;
        else if (k == "--spans")
            opts.spansPath = v;
        else if (k == "--requests")
            opts.requestsPath = v;
        else if (k == "--block")
            opts.requestBlock = std::stoul(v);
        else
            return usage();
    }
    if (i != argc || out_path.empty())
        return usage();

    rbsim::Json doc = rbsim::Json::object();
    int rc = 2;
    try {
        if (cmd == "refs") {
            rc = generateSampledReferences(opts.seed, doc);
        } else {
            doc["workload"] = workload;
            if (workload == "detailed-grid")
                rc = runDetailedGrid(opts, doc);
            else if (workload == "sampled-long")
                rc = runSampledLong(opts, doc);
            else if (workload == "serve-jobs")
                rc = runServeJobs(opts, doc);
            else
                return usage();
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rbperf: %s\n", e.what());
        return 1;
    }
    if (rc == 0)
        std::ofstream(out_path) << doc.dump(cmd == "refs" ? 1 : 0) << '\n';
    return rc;
}
