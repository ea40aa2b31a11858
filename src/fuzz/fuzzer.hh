/**
 * @file
 * The differential fuzzing driver behind rbsim-fuzz.
 *
 * Cases are numbered by a global atomic counter; case i derives its seed
 * as Rng::mixSeed(masterSeed, i) and round-robins over the selected
 * oracles — so the (case, seed, oracle) mapping is a pure function of
 * the master seed, independent of the number of worker threads or their
 * interleaving. Failures are collected (the lowest-numbered cases, capped
 * per oracle), then shrunk single-threaded after the workers join, and
 * serialized as repro files into the corpus directory.
 */

#ifndef RBSIM_FUZZ_FUZZER_HH
#define RBSIM_FUZZ_FUZZER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/corpus.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracle.hh"

namespace rbsim::fuzz
{

/** Driver options (the rbsim-fuzz command line). */
struct FuzzOptions
{
    std::vector<std::string> oracles; //!< empty = all five
    std::uint64_t seed = 1;           //!< master seed
    double seconds = 0.0;             //!< wall-clock budget (0 = off)
    std::uint64_t iterations = 0;     //!< case budget (0 = off)
    unsigned jobs = 1;                //!< worker threads
    std::uint64_t valueIters = 4096;  //!< draws per value-level case
    GenOptions gen;                   //!< program generator bias
    std::string corpusDir;            //!< write repros here ("" = don't)
    Plant plant = Plant::None;        //!< injected bug (self-test)
    bool shrink = true;               //!< delta-debug failing programs
    unsigned maxShrinkEvals = 400;    //!< shrinker oracle-eval budget
    unsigned maxFailures = 3;         //!< repros kept per oracle
                                      //!< (lowest case numbers)
    //! Ring-buffer size for the pipeline trace written next to every
    //! program-level repro ("<repro>.trace"); 0 disables.
    std::size_t traceLast = 64;
    //! Windowed replay (Oracle::setRunLimits): cap the detailed cosim
    //! window per case at this many retired instructions (0 = to HALT)
    //! and record the window in minted repros.
    std::uint64_t maxInsts = 0;
    //! Windowed replay: fast-forward this many instructions via
    //! checkpoint capture + resume before the detailed window.
    std::uint64_t resumeSkip = 0;
};

/** Per-oracle case/failure accounting. */
struct OracleTally
{
    std::string name;
    std::uint64_t cases = 0;
    std::uint64_t failures = 0;
};

/** One collected (and possibly shrunk) failure. */
struct FuzzFailure
{
    std::string oracle;
    std::uint64_t seed = 0;
    std::string detail;        //!< oracle detail (post-shrink when shrunk)
    ReproFile repro;
    std::string path;          //!< repro file path ("" when not written)
    unsigned shrinkEvals = 0;
    unsigned programInsts = 0; //!< lowered instruction count (program-level)
};

/** Everything one fuzzing run produced. */
struct FuzzSummary
{
    std::vector<OracleTally> oracles;
    std::vector<FuzzFailure> failures;
    std::uint64_t cases = 0;
    double seconds = 0.0;

    bool ok() const { return failures.empty(); }

    /** Render for humans. */
    std::string format() const;

    /** Render as a JSON document (the --json output). */
    std::string toJson() const;
};

/** Run one fuzzing campaign. When neither `seconds` nor `iterations`
 * is set, runs 100 cases. */
FuzzSummary runFuzz(const FuzzOptions &opts);

} // namespace rbsim::fuzz

#endif // RBSIM_FUZZ_FUZZER_HH
