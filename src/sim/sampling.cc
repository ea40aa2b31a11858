#include "sim/sampling.hh"

#include <chrono>
#include <cmath>

#include "sim/fastfwd.hh"

namespace rbsim
{

FastForwardEnd
sampleCheckpoints(
    const MachineConfig &cfg, const Program &prog,
    const SamplingOptions &opts,
    const std::function<void(std::shared_ptr<const ArchCheckpoint>)>
        &on_point)
{
    FastForward ff(cfg, prog);
    ff.run(opts.skipInsts);
    for (std::uint64_t points = 0;
         !ff.halted() && (opts.maxWindows == 0 || points < opts.maxWindows);
         ++points) {
        auto ck = std::make_shared<ArchCheckpoint>();
        ff.capture(*ck);
        on_point(std::move(ck));
        ff.run(opts.periodInsts);
    }
    // Run out the stream so ffInsts reports the true program length
    // when no window cap stopped us early.
    if (opts.maxWindows == 0) {
        while (!ff.halted())
            ff.run(1u << 20);
    }
    return FastForwardEnd{ff.instsExecuted(), ff.halted()};
}

std::vector<std::shared_ptr<const ArchCheckpoint>>
collectCheckpoints(const MachineConfig &cfg, const Program &prog,
                   const SamplingOptions &opts, std::uint64_t *ff_insts,
                   bool *completed)
{
    std::vector<std::shared_ptr<const ArchCheckpoint>> points;
    const FastForwardEnd end = sampleCheckpoints(
        cfg, prog, opts, [&points](std::shared_ptr<const ArchCheckpoint> ck) {
            points.push_back(std::move(ck));
        });
    if (ff_insts)
        *ff_insts = end.ffInsts;
    if (completed)
        *completed = end.completed;
    return points;
}

SimOptions
windowOptions(const SamplingOptions &opts)
{
    SimOptions w;
    w.maxCycles = opts.maxCyclesPerWindow;
    w.cosim = opts.cosim;
    w.warmupInsts = opts.warmupInsts;
    w.maxInsts = opts.measureInsts;
    return w;
}

double
ci95HalfWidth(const std::vector<double> &xs)
{
    const std::size_t n = xs.size();
    if (n < 2)
        return 0.0;
    const double mean = arithmeticMean(xs);
    double ss = 0.0;
    for (double x : xs)
        ss += (x - mean) * (x - mean);
    const double sd = std::sqrt(ss / static_cast<double>(n - 1));

    // Two-sided Student t quantiles at 97.5%, df = n - 1 (df > 30 is
    // within half a percent of the normal 1.96).
    static const double t975[] = {
        0,     12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
        2.306, 2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
        2.120, 2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
        2.064, 2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    const std::size_t df = n - 1;
    const double t = df < sizeof(t975) / sizeof(t975[0]) ? t975[df] : 1.96;
    return t * sd / std::sqrt(static_cast<double>(n));
}

void
accumulateWindowStats(StatSnapshot &into, const StatSnapshot &win)
{
    for (const auto &kv : win.counters)
        into.counters[kv.first] += kv.second;
    for (const auto &kv : win.vectors) {
        auto &dst = into.vectors[kv.first];
        if (dst.size() < kv.second.size())
            dst.resize(kv.second.size(), 0);
        for (std::size_t i = 0; i < kv.second.size(); ++i)
            dst[i] += kv.second[i];
    }
}

SampledResult
simulateSampled(const MachineConfig &cfg, const Program &prog,
                const SamplingOptions &opts)
{
    SampledResult res;
    res.machine = cfg.label;
    res.workload = prog.name;

    const auto t0 = std::chrono::steady_clock::now();
    Simulator sim(cfg);
    SimResult window;
    SimOptions wopts = windowOptions(opts);
    const FastForwardEnd end = sampleCheckpoints(
        cfg, prog, opts, [&](std::shared_ptr<const ArchCheckpoint> ck) {
            wopts.startFrom = std::move(ck);
            sim.runInto(prog, wopts, window);
            res.windowIpc.push_back(window.ipc());
            accumulateWindowStats(res.merged, window.stats);
            ++res.windows;
        });
    res.ffInsts = end.ffInsts;
    res.completed = end.completed;
    deriveFormulas(res.merged);
    res.ipcMean = arithmeticMean(res.windowIpc);
    res.ipcCi95 = ci95HalfWidth(res.windowIpc);
    const auto t1 = std::chrono::steady_clock::now();
    res.hostSeconds = std::chrono::duration<double>(t1 - t0).count();
    return res;
}

} // namespace rbsim
