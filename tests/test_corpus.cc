/**
 * @file
 * Regression replay of the committed repro corpus (tests/corpus/).
 *
 * Every file minted by a past fuzzing campaign — or hand-written for a
 * bug class the generator once tripped — is replayed through its oracle
 * and must be clean: these are fixed bugs, and a replay failure means a
 * regression. Repros minted from *planted* bugs record the honest
 * configuration, so they too replay clean (their notes document the
 * plant that produced them; test_fuzz re-fails them under the plant).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>

#include "fuzz/corpus.hh"

#ifndef RBSIM_CORPUS_DIR
#error "RBSIM_CORPUS_DIR must point at tests/corpus"
#endif

namespace rbsim
{
namespace
{

using namespace rbsim::fuzz;

std::vector<std::string>
corpusFiles()
{
    return listCorpus(RBSIM_CORPUS_DIR);
}

TEST(Corpus, UnknownOracleReplayFailsWithDiagnostic)
{
    // A .repro naming an oracle this build does not know (a repro
    // minted by a newer or older build) must come back as a *failed*
    // replay with a diagnostic — never a silent PASS, never an abort of
    // the whole replay batch.
    ReproFile repro = loadRepro(std::string(RBSIM_CORPUS_DIR) +
                                "/sched-bypass-widen-min.repro");
    repro.oracle = "oracle-from-the-future";
    const OracleResult r = replayRepro(repro);
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.detail.find("unknown oracle"), std::string::npos)
        << r.detail;
    EXPECT_NE(r.detail.find("oracle-from-the-future"), std::string::npos)
        << r.detail;
    // The diagnostic lists what this build does support.
    EXPECT_NE(r.detail.find("cosim"), std::string::npos) << r.detail;
    EXPECT_NE(r.detail.find("sched"), std::string::npos) << r.detail;
}

TEST(Corpus, BadConfigReproFailsAloneWithDiagnostic)
{
    // A repro this build rejects fails that one file with a diagnostic,
    // and the files after it in the replay batch still run. The config
    // line may have a width the machine factory would assert on, a mask
    // past the 8-bit level mask, a key it does not know or names twice,
    // a non-integral number or no kind. A file from an older build may
    // name the value-level `rbalu` oracle or carry an `iters` line,
    // neither of which this build has.
    const std::string good =
        std::string(RBSIM_CORPUS_DIR) + "/sched-bypass-widen-min.repro";
    std::ostringstream text;
    text << std::ifstream(good).rdbuf();
    const std::string honest =
        R"({"kind":"ideal","width":8,"label":"Ideal No-1,2",)"
        R"("bypass_level_mask":4})";
    const std::string oracle = "; rbsim-repro-oracle: sched\n";
    ASSERT_NE(text.str().find(honest), std::string::npos);
    ASSERT_EQ(text.str().find(oracle), 0u);

    struct Bad
    {
        std::string from;
        std::string to;
        const char *diagnostic;
    };
    const Bad bads[] = {
        {honest, R"({"kind":"ideal","width":0,"bypass_level_mask":4})",
         R"("width" must be a power of two in [4, 16])"},
        {honest, R"({"kind":"ideal","width":6,"bypass_level_mask":4})",
         R"("width" must be a power of two in [4, 16])"},
        {honest, R"({"kind":"ideal","width":8.0,"bypass_level_mask":4})",
         R"("width" must be a non-negative integer)"},
        {honest, R"({"kind":"ideal","width":8,"bypass_level_mask":263})",
         R"("bypass_level_mask" must be in [0, 255])"},
        {honest,
         R"({"kind":"ideal","width":8,"bypass_level_mask":4,)"
         R"("polled":false})",
         R"(unknown config key "polled")"},
        {honest, R"({"kind":"Ideal","width":8,"bypassMask":4})",
         R"(unknown config key "bypassMask")"},
        {honest, R"({"width":8,"bypass_level_mask":4})", R"("kind")"},
        {honest, R"({"kind":"ideal","width":16,"width":8})",
         R"(duplicate key "width")"},
        {oracle, "; rbsim-repro-oracle: rbalu\n",
         "unknown oracle 'rbalu' — is this repro from another build? "
         "known oracles: cosim, sched"},
        {oracle, oracle + "; rbsim-repro-iters: 4096\n",
         "unknown repro metadata key 'iters'"},
    };
    std::vector<std::string> batch;
    for (std::size_t i = 0; i < std::size(bads); ++i) {
        std::string t = text.str();
        t.replace(t.find(bads[i].from), bads[i].from.size(), bads[i].to);
        const std::string path = ::testing::TempDir() + "bad-repro-" +
                                 std::to_string(i) + ".repro";
        std::ofstream(path) << t;
        batch.push_back(path);
        batch.push_back(good);
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const OracleResult r = replayReproFile(batch[i]);
        if (i % 2) {
            EXPECT_FALSE(r.failed) << batch[i] << ": " << r.detail;
            continue;
        }
        EXPECT_TRUE(r.failed) << batch[i];
        EXPECT_NE(r.detail.find(bads[i / 2].diagnostic), std::string::npos)
            << r.detail;
    }
}

TEST(Corpus, IsCommittedAndNonTrivial)
{
    // The committed corpus must exist: an empty directory would make the
    // replay suite below pass vacuously.
    EXPECT_GE(corpusFiles().size(), 10u) << "corpus dir: "
                                         << RBSIM_CORPUS_DIR;
}

class CorpusReplay : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CorpusReplay, ReplaysClean)
{
    const ReproFile repro = loadRepro(GetParam());
    EXPECT_FALSE(repro.oracle.empty());
    const OracleResult r = replayRepro(repro);
    EXPECT_FALSE(r.failed)
        << GetParam() << "\n  " << r.detail
        << (repro.note.empty() ? "" : "\n  note: " + repro.note);
}

std::string
reproTestName(const ::testing::TestParamInfo<std::string> &info)
{
    // File stem, sanitized to gtest's [A-Za-z0-9_] name alphabet.
    std::string stem = info.param;
    const std::size_t slash = stem.find_last_of('/');
    if (slash != std::string::npos)
        stem = stem.substr(slash + 1);
    const std::size_t dot = stem.find_last_of('.');
    if (dot != std::string::npos)
        stem = stem.substr(0, dot);
    for (char &c : stem) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return stem.empty() ? "unnamed" : stem;
}

INSTANTIATE_TEST_SUITE_P(Files, CorpusReplay,
                         ::testing::ValuesIn(corpusFiles()),
                         reproTestName);

} // namespace
} // namespace rbsim
