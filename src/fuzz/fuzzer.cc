#include "fuzz/fuzzer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <mutex>
#include <sstream>

#include "common/json.hh"
#include "common/work_queue.hh"
#include "fuzz/shrink.hh"
#include "isa/disasm.hh"

namespace rbsim::fuzz
{

namespace
{

/** A failure as caught by a worker, before shrinking. */
struct RawFailure
{
    std::uint64_t caseIdx = 0;
    std::size_t oracleIdx = 0;
    std::uint64_t seed = 0;
    std::string detail;
    ProgRecipe recipe;
    std::vector<MachineConfig> configs;
};

std::string
hexSeed(std::uint64_t seed)
{
    std::ostringstream os;
    os << std::hex << seed;
    return os.str();
}

} // namespace

FuzzSummary
runFuzz(const FuzzOptions &opts)
{
    const auto oracles = makeOracles(opts.oracles, opts.plant);
    if (opts.maxInsts || opts.resumeSkip) {
        for (const auto &oracle : oracles)
            oracle->setRunLimits(opts.maxInsts, opts.resumeSkip);
    }

    std::uint64_t iterations = opts.iterations;
    if (opts.seconds <= 0.0 && iterations == 0)
        iterations = 100;

    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&start]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    std::atomic<std::uint64_t> nextCase{0};
    std::mutex mtx;
    std::vector<std::vector<RawFailure>> kept(oracles.size());
    std::vector<std::uint64_t> caseCount(oracles.size(), 0);
    std::vector<std::uint64_t> failCount(oracles.size(), 0);

    auto worker = [&]() {
        for (;;) {
            const std::uint64_t idx =
                nextCase.fetch_add(1, std::memory_order_relaxed);
            if (iterations != 0 && idx >= iterations)
                return;
            if (opts.seconds > 0.0 && elapsed() >= opts.seconds)
                return;

            const std::size_t which = idx % oracles.size();
            const Oracle &oracle = *oracles[which];
            const std::uint64_t case_seed =
                Rng::mixSeed(opts.seed, idx);

            Rng rng(case_seed);
            std::vector<MachineConfig> configs = oracle.pickConfigs(rng);
            ProgRecipe recipe = generateRecipe(rng, opts.gen);
            recipe.name = "fuzz-" + hexSeed(case_seed);
            const OracleResult result =
                oracle.runProgram(lowerRecipe(recipe), configs);

            std::lock_guard<std::mutex> lock(mtx);
            ++caseCount[which];
            if (!result.failed)
                continue;
            ++failCount[which];
            RawFailure f;
            f.caseIdx = idx;
            f.oracleIdx = which;
            f.seed = case_seed;
            f.detail = result.detail;
            f.recipe = std::move(recipe);
            f.configs = std::move(configs);
            // Keep the maxFailures lowest-numbered failing cases, so the
            // survivors do not depend on which worker finished first.
            std::vector<RawFailure> &mine = kept[which];
            mine.push_back(std::move(f));
            std::sort(mine.begin(), mine.end(),
                      [](const RawFailure &a, const RawFailure &b) {
                          return a.caseIdx < b.caseIdx;
                      });
            if (mine.size() > opts.maxFailures)
                mine.pop_back();
        }
    };

    // Thread management lives in the shared WorkQueue (one self-
    // scheduling case loop per worker); --jobs only picks the count.
    {
        WorkQueue pool(std::max(1u, opts.jobs));
        for (unsigned i = 0; i < pool.workers(); ++i)
            pool.submit([&](unsigned) { worker(); });
        pool.wait();
    }

    // Deterministic failure order regardless of thread interleaving.
    std::vector<RawFailure> raw;
    for (std::vector<RawFailure> &mine : kept)
        std::move(mine.begin(), mine.end(), std::back_inserter(raw));
    std::sort(raw.begin(), raw.end(),
              [](const RawFailure &a, const RawFailure &b) {
                  return a.seed < b.seed;
              });

    // Shrink and serialize single-threaded.
    FuzzSummary summary;
    for (RawFailure &f : raw) {
        const Oracle &oracle = *oracles[f.oracleIdx];
        FuzzFailure out;
        out.oracle = oracle.name();
        out.seed = f.seed;
        out.detail = f.detail;
        out.repro.oracle = oracle.name();
        out.repro.seed = f.seed;
        out.repro.note = f.detail;
        // Record non-default bias knobs so the preset that drew the
        // case round-trips through the file.
        if (!(opts.gen == GenOptions()))
            out.repro.genJson = genOptionsToJson(opts.gen).dump();
        // Window limits are part of the failure's identity: the case
        // (and its shrink) was evaluated under them, so the repro must
        // replay under them too.
        out.repro.maxInsts = opts.maxInsts;
        out.repro.resumeSkip = opts.resumeSkip;

        ProgRecipe minimal = f.recipe;
        if (opts.shrink) {
            const ShrinkOutcome s = shrinkRecipe(oracle, f.configs, f.recipe,
                                                 opts.maxShrinkEvals);
            out.shrinkEvals = s.evals;
            if (s.reproduced) {
                minimal = s.recipe;
                out.detail = s.detail;
                out.repro.note = s.detail;
            }
        }
        const Program prog = lowerRecipe(minimal);
        out.programInsts = static_cast<unsigned>(prog.code.size());
        out.repro.configs = f.configs;
        out.repro.asmText = disassembleProgram(prog);

        if (!opts.corpusDir.empty()) {
            out.path = writeRepro(opts.corpusDir,
                                  out.oracle + "-" + hexSeed(f.seed),
                                  out.repro);
            if (opts.traceLast) {
                // Re-run the shrunk repro with the ring armed so every
                // written .repro ships with a pipeline visualization of
                // its failure (<repro>.trace, O3PipeView format).
                TraceSpec spec;
                spec.ringLast = opts.traceLast;
                spec.ringPath = out.path + ".trace";
                replayRepro(out.repro, opts.plant, spec);
            }
        }
        summary.failures.push_back(std::move(out));
    }

    for (std::size_t i = 0; i < oracles.size(); ++i) {
        summary.oracles.push_back(
            {oracles[i]->name(), caseCount[i], failCount[i]});
        summary.cases += caseCount[i];
    }
    summary.seconds = elapsed();
    return summary;
}

std::string
FuzzSummary::format() const
{
    std::ostringstream os;
    for (const OracleTally &t : oracles) {
        os << "  " << t.name << ": " << t.cases << " cases, "
           << t.failures << " failures\n";
    }
    os << "total: " << cases << " cases in " << seconds << " s\n";
    for (const FuzzFailure &f : failures) {
        os << "FAIL [" << f.oracle << "] seed=0x" << std::hex << f.seed
           << std::dec << " (" << f.programInsts << " insts after "
           << f.shrinkEvals << " shrink evals)\n  " << f.detail << "\n";
        if (!f.path.empty())
            os << "  repro: " << f.path << "\n";
    }
    return os.str();
}

std::string
FuzzSummary::toJson() const
{
    Json doc = Json::object();
    Json per = Json::array();
    for (const OracleTally &t : oracles) {
        Json o = Json::object();
        o["oracle"] = Json(t.name);
        o["cases"] = Json(t.cases);
        o["failures"] = Json(t.failures);
        per.push(std::move(o));
    }
    doc["oracles"] = std::move(per);
    doc["cases"] = Json(cases);
    doc["seconds"] = Json(seconds);
    Json fails = Json::array();
    for (const FuzzFailure &f : failures) {
        Json o = Json::object();
        o["oracle"] = Json(f.oracle);
        o["seed"] = Json(f.seed);
        o["detail"] = Json(f.detail);
        o["programInsts"] = Json(f.programInsts);
        o["shrinkEvals"] = Json(f.shrinkEvals);
        if (!f.path.empty())
            o["repro"] = Json(f.path);
        fails.push(std::move(o));
    }
    doc["failures"] = std::move(fails);
    doc["ok"] = Json(ok());
    return doc.dump(2);
}

} // namespace rbsim::fuzz
