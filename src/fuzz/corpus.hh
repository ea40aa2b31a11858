/**
 * @file
 * Serialized fuzz repros and the committed regression corpus.
 *
 * A repro file is a valid TinyAlpha assembly file: the failing program
 * travels as assembly text (the assembler round-trips everything the
 * generator emits) and the metadata — which oracle failed, the case
 * seed, the machine configurations, a note — travels in `; rbsim-repro`
 * comment lines the assembler ignores.
 *
 * Files under tests/corpus/ are replayed by ctest (test_corpus) and must
 * stay green: they are regression tests, so a repro minted from a
 * planted bug records the *unplanted* configuration and documents the
 * plant in its note.
 */

#ifndef RBSIM_FUZZ_CORPUS_HH
#define RBSIM_FUZZ_CORPUS_HH

#include <string>
#include <vector>

#include "fuzz/oracle.hh"

namespace rbsim::fuzz
{

/** One serialized repro. */
struct ReproFile
{
    std::string oracle;             //!< oracle name (see oracleNames())
    std::uint64_t seed = 0;         //!< case seed
    std::string note;               //!< free-form failure description
    /** Generator bias knobs (genOptionsToJson one-liner) the case was
     * drawn with, "" when the defaults were in force — with the seed,
     * enough to re-derive the recipe, so presets round-trip through
     * repro files. */
    std::string genJson;
    std::vector<MachineConfig> configs; //!< machines (configToJson lines)
    std::string asmText;            //!< program assembly
    /** Replay window (Oracle::setRunLimits): detailed-simulate at most
     * this many retired instructions (0 = to HALT). Recorded so shrunk
     * repros of deep failures stay replayable without resimulating the
     * whole prefix. */
    std::uint64_t maxInsts = 0;
    /** Replay window: functionally fast-forward this many instructions
     * (checkpoint capture + resume) before the detailed window. */
    std::uint64_t resumeSkip = 0;
};

/** Render a repro as an assemblable file with metadata comments. */
std::string formatRepro(const ReproFile &repro);

/** Inverse of formatRepro. Throws std::invalid_argument when the
 * metadata is missing or malformed. */
ReproFile parseRepro(const std::string &text);

/** Load and parse a repro file. Throws on I/O or parse errors. */
ReproFile loadRepro(const std::string &path);

/**
 * Write a repro into `dir` (created if needed) as
 * "<stem>.repro"; returns the full path.
 */
std::string writeRepro(const std::string &dir, const std::string &stem,
                       const ReproFile &repro);

/** All *.repro paths under `dir`, sorted (empty when dir is absent). */
std::vector<std::string> listCorpus(const std::string &dir);

/**
 * Re-run a repro through its oracle (with an optional plant, for
 * pipeline self-tests): assemble `asmText` and run it on the recorded
 * configs. `spec` arms pipeline tracing for the replayed runs (see
 * TraceSpec).
 *
 * A repro naming an oracle this build does not know (a corpus file from
 * a newer or older build) is reported as a *failed* result with a
 * diagnostic — never silently skipped or passed.
 */
OracleResult replayRepro(const ReproFile &repro,
                         Plant plant = Plant::None,
                         const TraceSpec &spec = {});

/**
 * Load and replay one repro file (loadRepro + replayRepro). Never
 * throws: an unreadable or malformed file — including a config line
 * this build rejects — is a failed result carrying the diagnostic, so a
 * replay batch goes on to its next file.
 */
OracleResult replayReproFile(const std::string &path,
                             Plant plant = Plant::None,
                             const TraceSpec &spec = {});

} // namespace rbsim::fuzz

#endif // RBSIM_FUZZ_CORPUS_HH
