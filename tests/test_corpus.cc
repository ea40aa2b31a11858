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
    // A .repro naming an oracle this build does not know (typically a
    // repro minted by a newer build) must come back as a *failed*
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
    // A config line this build rejects — a width the machine factory
    // would assert on, a bypass mask wider than three levels, a key it
    // does not know — fails that one file with a diagnostic, and the
    // files after it in the replay batch still run.
    const std::string good =
        std::string(RBSIM_CORPUS_DIR) + "/sched-bypass-widen-min.repro";
    std::ostringstream text;
    text << std::ifstream(good).rdbuf();
    const std::string honest = R"("width":8,"bypassMask":4,)";
    ASSERT_NE(text.str().find(honest), std::string::npos);

    struct Bad
    {
        const char *fields;
        const char *diagnostic;
    };
    const Bad bads[] = {
        {R"("width":0,"bypassMask":4,)", "width 0"},
        {R"("width":6,"bypassMask":4,)", "width 6"},
        {R"("width":8,"bypassMask":263,)", "bypassMask 263"},
        {R"("width":8,"bypassMask":4,"polled":false,)", "'polled'"},
    };
    std::vector<std::string> batch;
    for (std::size_t i = 0; i < std::size(bads); ++i) {
        std::string t = text.str();
        t.replace(t.find(honest), honest.size(), bads[i].fields);
        const std::string path = ::testing::TempDir() + "bad-config-" +
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
