/**
 * @file
 * Workload registry: the 20 synthetic benchmarks standing in for
 * SPECint95 (8) and SPECint2000 (12).
 *
 * The paper evaluates on SPEC binaries we cannot ship; each generator
 * here builds a TinyAlpha program that mimics its namesake's kernel
 * structure (instruction mix, dependence shape, branch behaviour, and
 * memory locality — the properties the experiments actually depend on).
 * Every workload runs to completion and is validated against the
 * reference interpreter. See DESIGN.md for the substitution rationale.
 */

#ifndef RBSIM_WORKLOADS_WORKLOAD_HH
#define RBSIM_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace rbsim
{

/** Knobs shared by all generators. */
struct WorkloadParams
{
    /** Linear dynamic-length multiplier (1 = benchmark default, a few
     * hundred thousand dynamic instructions). */
    unsigned scale = 1;

    /** Seed for the data/pattern generators. */
    std::uint64_t seed = 2002;
};

/** One registered workload. */
struct WorkloadInfo
{
    std::string name;        //!< e.g. "mcf"
    std::string suite;       //!< "spec95", "spec2000", "gen", ...
    std::string description; //!< what the kernel mimics
    /** Program factory; a std::function so generator-backed entries can
     * capture their GenConfig (plain function pointers still convert). */
    std::function<Program(const WorkloadParams &)> build;
};

/** All 20 workloads, SPECint95 first. */
const std::vector<WorkloadInfo> &allWorkloads();

/** The workloads of one suite ("spec95" or "spec2000"). */
std::vector<WorkloadInfo> suiteWorkloads(const std::string &suite);

/**
 * Find a workload by name (throws std::out_of_range if unknown): a
 * registered workload, or a generator preset ("zipf-0.75", "chase-l2",
 * ...) under the queried spelling. Returned by value, so nothing is
 * kept per distinct name.
 */
WorkloadInfo findWorkload(const std::string &name);

// SPECint95-like generators (spec95.cc).
Program buildGo95(const WorkloadParams &);
Program buildM88ksim95(const WorkloadParams &);
Program buildGcc95(const WorkloadParams &);
Program buildCompress95(const WorkloadParams &);
Program buildLi95(const WorkloadParams &);
Program buildIjpeg95(const WorkloadParams &);
Program buildPerl95(const WorkloadParams &);
Program buildVortex95(const WorkloadParams &);

// SPECint2000-like generators (spec2000.cc).
Program buildGzip00(const WorkloadParams &);
Program buildVpr00(const WorkloadParams &);
Program buildGcc00(const WorkloadParams &);
Program buildMcf00(const WorkloadParams &);
Program buildCrafty00(const WorkloadParams &);
Program buildParser00(const WorkloadParams &);
Program buildEon00(const WorkloadParams &);
Program buildPerlbmk00(const WorkloadParams &);
Program buildGap00(const WorkloadParams &);
Program buildVortex00(const WorkloadParams &);
Program buildBzip200(const WorkloadParams &);
Program buildTwolf00(const WorkloadParams &);

} // namespace rbsim

#endif // RBSIM_WORKLOADS_WORKLOAD_HH
