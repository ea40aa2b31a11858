#include "common.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <thread>

#include <sys/resource.h>

#include "func/predecode.hh"
#include "rb/simd/kernels.hh"

#ifndef RBPERF_BUILD_TYPE
#define RBPERF_BUILD_TYPE "unknown"
#endif

namespace rbperf
{

using rbsim::Json;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

int
Spans::begin(const char *name, std::uint64_t request, int parent)
{
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch)
            .count();
    spans.push_back(Span{name, now, now, parent, request});
    return static_cast<int>(spans.size() - 1);
}

void
Spans::end(int id)
{
    spans[static_cast<std::size_t>(id)].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch)
            .count();
}

std::vector<double>
Spans::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans) {
        if (name == s.name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-9);
    }
    return out;
}

double
Spans::total(const std::string &name) const
{
    double t = 0;
    for (double d : durations(name))
        t += d;
    return t;
}

void
Spans::write(const std::string &path) const
{
    Json arr = Json::array();
    for (const Span &s : spans) {
        Json j = Json::object();
        j["name"] = s.name;
        j["start_ns"] = static_cast<std::uint64_t>(s.startNs);
        j["end_ns"] = static_cast<std::uint64_t>(s.endNs);
        j["parent"] = s.parent;
        j["request"] = s.request;
        arr.push(std::move(j));
    }
    std::ofstream(path) << arr.dump() << '\n';
}

namespace
{

volatile std::uint64_t referenceSink; // keeps the reference's work live

} // namespace

double
referenceSeconds()
{
    static const std::vector<std::uint64_t> table = [] {
        std::vector<std::uint64_t> t(std::size_t{1} << 15);
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = i * 2654435761u;
        return t;
    }();
    // Bring the table back into the cache untimed, so the operation
    // before does not decide what the first reads cost.
    std::uint64_t acc = 0;
    for (std::uint64_t v : table)
        acc += v;
    const auto t0 = Clock::now();
    std::uint64_t x = 1;
    for (std::uint32_t i = 0; i < 4'000'000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t v = table[(x >> 33) & (table.size() - 1)];
        if (v & 1)
            acc += v;
        else
            acc ^= v >> 3;
        if ((x >> 60) > 9)
            acc += i;
    }
    const double secs = secondsSince(t0);
    referenceSink = acc;
    return secs;
}

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    }
    return "unknown";
}

} // namespace

Json
provenance(const RunOptions &opts, unsigned workers)
{
    Json p = Json::object();
#if defined(__clang__)
    p["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    p["compiler"] = std::string("gcc ") + __VERSION__;
#else
    p["compiler"] = "unknown";
#endif
    p["build_type"] = RBPERF_BUILD_TYPE;
    p["simd_backend"] = rbsim::simd::backendName();
    p["dispatch"] = rbsim::dispatchName();
    p["workers"] = workers;
    p["nproc"] = std::thread::hardware_concurrency();
    p["cpu_model"] = cpuModel();
    p["seed"] = opts.seed;
    return p;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
snapshotDigest(const rbsim::StatSnapshot &s)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const auto &[name, v] : s.counters) {
        mix(name.data(), name.size());
        mix(&v, sizeof(v));
    }
    for (const auto &[name, vec] : s.vectors) {
        mix(name.data(), name.size());
        mix(vec.data(), vec.size() * sizeof(vec[0]));
    }
    return hex(h);
}

std::vector<rbsim::MachineConfig>
paperMachines(unsigned width)
{
    using rbsim::MachineConfig;
    using rbsim::MachineKind;
    return {MachineConfig::make(MachineKind::Baseline, width),
            MachineConfig::make(MachineKind::RbLimited, width),
            MachineConfig::make(MachineKind::RbFull, width),
            MachineConfig::make(MachineKind::Ideal, width)};
}

Json
jsonArray(const std::vector<double> &xs)
{
    Json a = Json::array();
    for (double x : xs)
        a.push(x);
    return a;
}

void
simulatorCosts(const std::vector<rbsim::MachineConfig> &machines,
               const std::vector<rbsim::Program> &progs, Json &layers)
{
    std::vector<double> ctor;
    std::vector<double> reset;
    rbsim::SimOptions one;
    one.maxInsts = 1;
    rbsim::SimResult scratch;
    for (const rbsim::MachineConfig &m : machines) {
        for (int rep = 0; rep < 5; ++rep) {
            const auto t0 = Clock::now();
            rbsim::Simulator fresh(m);
            ctor.push_back(secondsSince(t0));
        }
        rbsim::Simulator warm(m);
        for (const rbsim::Program &p : progs) {
            warm.runInto(p, one, scratch);
            const auto t0 = Clock::now();
            warm.runInto(p, one, scratch);
            reset.push_back(secondsSince(t0));
        }
    }
    layers["simulator.ctor_ms"] = median(ctor) * 1e3;
    layers["simulator.reset_ms"] = median(reset) * 1e3;
}

void
buildCost(const std::vector<rbsim::Program> &progs,
          const rbsim::WorkloadParams &wp, Json &layers)
{
    std::vector<double> secs;
    for (const rbsim::Program &p : progs) {
        const rbsim::WorkloadInfo &w = rbsim::findWorkload(p.name);
        const auto t0 = Clock::now();
        w.build(wp);
        secs.push_back(secondsSince(t0));
    }
    layers["workloads.build_ms"] = median(secs) * 1e3;
}

namespace
{

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

} // namespace

void
CoreTally::add(const rbsim::SimResult &r, double job_secs)
{
    const std::uint64_t cyc = r.counter("core.cycles");
    cycles += cyc;
    cyclesOf[r.machine] += cyc;
    retired += r.counter("core.retired");
    squashed += r.counter("core.squashed");
    fetched += r.counter("core.fetched");
    holeWait += r.counter("core.holeWaitCycles");
    dl1Miss += r.counter("dl1.misses");
    dl1Acc += r.counter("dl1.accesses");
    condBr += r.counter("core.condBranches");
    condMiss += r.counter("core.condMispredicts");
    overhead.push_back(job_secs - r.hostSeconds);
    coreSecs += r.hostSeconds;
    serviceSecs += job_secs - r.hostSeconds;
}

void
CoreTally::report(double pass_secs, Json &layers) const
{
    using rbsim::HostProfiler;
    const double cyc = static_cast<double>(cycles);
    for (unsigned s = 0; s < HostProfiler::NumStages; ++s) {
        double sec = 0;
        for (const auto &[label, p] : prof)
            sec += p.seconds(s);
        layers[std::string("core.") + HostProfiler::stageName(s) +
               "_ns_per_cyc"] = sec * 1e9 / cyc;
    }
    for (const auto &[label, cyc_m] : cyclesOf) {
        layers["core.select_ns_per_cyc." + label] =
            prof.at(label).seconds(HostProfiler::Select) * 1e9 /
            static_cast<double>(cyc_m);
    }
    layers["core.cycles"] = cycles;
    layers["core.retired"] = retired;
    layers["core.squash_frac"] = ratio(squashed, fetched);
    layers["core.hole_wait_per_kcyc"] = ratio(holeWait, cycles) * 1e3;
    layers["dl1.miss_rate"] = ratio(dl1Miss, dl1Acc);
    layers["bpred.accuracy"] = 1.0 - ratio(condMiss, condBr);
    layers["service.overhead_ms"] = median(overhead) * 1e3;
    layers["core.share_pct"] = coreSecs / pass_secs * 100;
    layers["service.share_pct"] = serviceSecs / pass_secs * 100;
}

void
spanShares(const Spans &spans, double pass_secs, double ring_pct,
           Json &layers)
{
    auto share = [&](std::initializer_list<const char *> names) {
        double t = 0;
        for (const char *n : names)
            t += spans.total(n);
        return t / pass_secs * 100;
    };
    layers["fastfwd.share_pct"] = share({"fastfwd.run"});
    layers["checkpoint.share_pct"] =
        share({"checkpoint.capture", "checkpoint.fingerprint"});
    layers["serve.share_pct"] = share({"serve.parse", "serve.format"});
    layers["workloads.share_pct"] = share({"workloads.build"});
    layers["trace.share_pct"] = ring_pct;
}

} // namespace rbperf
