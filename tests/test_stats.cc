/**
 * @file
 * Statistics toolkit: means, Histogram, the StatGroup snapshot writer,
 * and StatSnapshot's window difference and JSON rendering; the JSON
 * library's unsigned and checked field reads.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/json.hh"
#include "common/stats.hh"

namespace
{

using namespace rbsim;

// ---------------------------------------------------------------- means

TEST(Means, EmptyInputsAreZero)
{
    EXPECT_EQ(arithmeticMean({}), 0.0);
    EXPECT_EQ(harmonicMean({}), 0.0);
}

TEST(Means, SingletonIsIdentity)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({2.5}), 2.5);
    EXPECT_DOUBLE_EQ(harmonicMean({2.5}), 2.5);
}

TEST(Means, DegenerateEqualSamples)
{
    const std::vector<double> xs(7, 3.0);
    EXPECT_DOUBLE_EQ(arithmeticMean(xs), 3.0);
    EXPECT_DOUBLE_EQ(harmonicMean(xs), 3.0);
}

TEST(Means, KnownValuesAndOrdering)
{
    const std::vector<double> xs{1.0, 4.0};
    EXPECT_DOUBLE_EQ(arithmeticMean(xs), 2.5);
    EXPECT_DOUBLE_EQ(harmonicMean(xs), 1.6);
    // HM < AM for non-equal positive samples.
    EXPECT_LT(harmonicMean(xs), arithmeticMean(xs));
}

// ------------------------------------------------------------ Histogram

TEST(Histogram, RecordsAndClampsToLastBucket)
{
    Histogram h(4);
    h.record(0);
    h.record(1);
    h.record(3);
    h.record(99); // clamps into bucket 3
    EXPECT_EQ(h.raw(), (std::vector<std::uint64_t>{1, 1, 0, 2}));
    h.record(2, 5); // five samples at once (idle-cycle skip)
    h.record(40, 3);
    EXPECT_EQ(h.raw(), (std::vector<std::uint64_t>{1, 1, 5, 5}));
}

// --------------------------------------------------------------- writer

/** What a component's writeStats() hook does: write its current values
 * under "core". */
void
writeCore(StatSnapshot &snap, std::uint64_t retired, std::uint64_t cycles,
          const std::uint64_t (&table)[3], const Histogram &hist)
{
    const StatGroup core(snap, "core");
    core.counter("retired", retired);
    core.counter("cycles", cycles);
    core.vector("table", table, 3);
    core.histogram("waits", hist);
}

TEST(StatGroup, SnapshotHoldsTheValuesWritten)
{
    std::uint64_t table[3] = {0, 7, 0};
    Histogram hist(4);
    hist.record(2);

    StatSnapshot snap;
    writeCore(snap, 30, 10, table, hist);
    // A snapshot is a copy: what the component counts next is not in it.
    table[1] = 9;
    hist.record(2);

    EXPECT_EQ(snap.counter("core.retired"), 30u);
    EXPECT_EQ(snap.counter("core.absent"), 0u);
    EXPECT_TRUE(snap.formulas.empty()); // components write no ratios
    EXPECT_DOUBLE_EQ(snap.value("core.cycles"), 10.0); // counter fallback
    EXPECT_EQ(snap.vec("core.table"),
              (std::vector<std::uint64_t>{0, 7, 0}));
    EXPECT_EQ(snap.vec("core.waits"),
              (std::vector<std::uint64_t>{0, 0, 1, 0}));
    EXPECT_DOUBLE_EQ(snap.ratio("core.retired", "core.cycles"), 3.0);
}

TEST(StatGroup, DuplicateNamesThrow)
{
    const std::uint64_t v = 0;
    Histogram h(2);
    StatSnapshot snap;
    const StatGroup g(snap, "core");
    g.counter("x", 1);
    g.vector("y", &v, 1);
    g.histogram("z", h);
    for (const char *name : {"x", "y", "z"}) {
        SCOPED_TRACE(name);
        EXPECT_THROW(g.counter(name, 2), std::logic_error);
        EXPECT_THROW(g.vector(name, &v, 1), std::logic_error);
        EXPECT_THROW(g.histogram(name, h), std::logic_error);
    }
    // The first write of each name stands; a leaf name under another
    // prefix is another statistic.
    EXPECT_EQ(snap.counter("core.x"), 1u);
    StatGroup(snap, "lsq").counter("x", 3);
    EXPECT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.vectors.size(), 2u);
}

// ------------------------------------------------------- window deltas

TEST(StatSnapshot, SubtractTakesAwayTheStartCountersAndBuckets)
{
    std::uint64_t table[3] = {5, 0, 0};
    Histogram hist(4);
    hist.record(1, 7);
    StatSnapshot start;
    writeCore(start, 40, 0, table, hist);
    table[0] = 9;
    table[2] = 4;
    hist.record(1);
    hist.record(3, 2);
    StatSnapshot window;
    writeCore(window, 100, 0, table, hist);
    window.formulas["core.ipc"] = 1.5;
    window.subtract(start);

    EXPECT_EQ(window.counter("core.retired"), 60u);
    EXPECT_EQ(window.vec("core.table"),
              (std::vector<std::uint64_t>{4, 0, 4}));
    EXPECT_EQ(window.vec("core.waits"),
              (std::vector<std::uint64_t>{0, 1, 0, 2}));
    // Formulas of the whole run are no formulas of the window.
    EXPECT_TRUE(window.formulas.empty());
    // A snapshot minus itself is all zeros, with every name kept.
    StatSnapshot none = start;
    none.subtract(start);
    EXPECT_EQ(none.counters.size(), start.counters.size());
    EXPECT_EQ(none.counter("core.retired"), 0u);
    EXPECT_EQ(none.vec("core.waits"),
              (std::vector<std::uint64_t>{0, 0, 0, 0}));
}

// ---------------------------------------------------------- JSON travel

TEST(StatSnapshot, RendersTheStatsObject)
{
    Histogram hist(3);
    hist.record(1);

    StatSnapshot snap;
    const StatGroup g(snap, "core");
    g.counter("big", 0xffff'ffff'ffff'fff0ull); // needs exact u64
    g.histogram("h", hist);
    snap.formulas["core.f"] = 0.125;

    EXPECT_EQ(snap.toJson().dump(),
              "{\"counters\":{\"core.big\":18446744073709551600},"
              "\"formulas\":{\"core.f\":0.125},"
              "\"vectors\":{\"core.h\":[0,1,0]}}");
    // A name list keeps only the statistics it names, in every group.
    EXPECT_EQ(snap.toJson({"core.f", "core.h", "core.none"}).dump(),
              "{\"counters\":{},\"formulas\":{\"core.f\":0.125},"
              "\"vectors\":{\"core.h\":[0,1,0]}}");
}

TEST(StatSnapshot, EqualityDetectsDivergence)
{
    StatSnapshot a, b;
    a.counters["core.retired"] = 5;
    b.counters["core.retired"] = 5;
    EXPECT_EQ(a, b);
    b.counters["core.retired"] = 6;
    EXPECT_NE(a, b);
}

TEST(Json, DuplicateObjectKeyIsAParseError)
{
    // Keeping the last value would read {"width":16,"width":4} as a
    // 4-wide machine without a word of warning.
    try {
        Json::parse(R"({"kind":"base","width":16,"width":4})");
        ADD_FAILURE() << "duplicate key accepted";
    } catch (const JsonError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate key \"width\""),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(Json::parse(R"({"o":{"k":null,"k":null}})"), JsonError);
    // One key in two sibling objects is not a duplicate.
    const Json ok = Json::parse(R"({"a":{"k":1},"b":{"k":2}})");
    EXPECT_EQ(ok.find("b")->find("k")->asU64(), 2u);
}

TEST(Json, UnsignedReadsRejectWhatNoU64Holds)
{
    EXPECT_EQ(Json::parse("18446744073709551615").asU64(),
              18446744073709551615ull);
    EXPECT_EQ(Json::parse("8.0").asU64(), 8u);
    // Past 2^64 a number parses as a double, and no cast of it to
    // std::uint64_t is defined.
    for (const char *big : {"1e30", "99999999999999999999",
                            "18446744073709551616"}) {
        SCOPED_TRACE(big);
        const Json v = Json::parse(big);
        EXPECT_THROW(v.asU64(), JsonError);
        EXPECT_THROW(asU64Field(v, "n"), std::invalid_argument);
    }
    // The checked readers take integers only, and sizes that fit.
    EXPECT_THROW(asU64Field(Json::parse("8.0"), "n"), std::invalid_argument);
    EXPECT_EQ(asSizeField(Json::parse("4294967295"), "n"), 4294967295u);
    EXPECT_THROW(asSizeField(Json::parse("4294967296"), "n"),
                 std::invalid_argument);
    EXPECT_THROW(asBoolField(Json::parse("1"), "b"), std::invalid_argument);
    EXPECT_THROW(asStringField(Json::parse("1"), "s"),
                 std::invalid_argument);
}

} // namespace
