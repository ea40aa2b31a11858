/**
 * @file
 * Statistics toolkit: means, StatSet, Histogram, the self-registering
 * registry, and StatSnapshot's JSON rendering.
 */

#include <gtest/gtest.h>

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
    EXPECT_EQ(geometricMean({}), 0.0);
}

TEST(Means, SingletonIsIdentity)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({2.5}), 2.5);
    EXPECT_DOUBLE_EQ(harmonicMean({2.5}), 2.5);
    EXPECT_DOUBLE_EQ(geometricMean({2.5}), 2.5);
}

TEST(Means, DegenerateEqualSamples)
{
    const std::vector<double> xs(7, 3.0);
    EXPECT_DOUBLE_EQ(arithmeticMean(xs), 3.0);
    EXPECT_DOUBLE_EQ(harmonicMean(xs), 3.0);
    EXPECT_DOUBLE_EQ(geometricMean(xs), 3.0);
}

TEST(Means, KnownValuesAndOrdering)
{
    const std::vector<double> xs{1.0, 4.0};
    EXPECT_DOUBLE_EQ(arithmeticMean(xs), 2.5);
    EXPECT_DOUBLE_EQ(harmonicMean(xs), 1.6);
    EXPECT_DOUBLE_EQ(geometricMean(xs), 2.0);
    // HM <= GM <= AM for non-equal positive samples.
    EXPECT_LT(harmonicMean(xs), geometricMean(xs));
    EXPECT_LT(geometricMean(xs), arithmeticMean(xs));
}

// -------------------------------------------------------------- StatSet

TEST(StatSet, AddGetRatio)
{
    StatSet s;
    EXPECT_EQ(s.get("absent"), 0u);
    s.add("hits");
    s.add("hits", 4);
    s.add("misses", 5);
    EXPECT_EQ(s.get("hits"), 5u);
    EXPECT_DOUBLE_EQ(s.ratio("hits", "misses"), 1.0);
    EXPECT_DOUBLE_EQ(s.ratio("hits", "absent"), 0.0);
}

TEST(StatSet, FormatIsSortedAndDeterministic)
{
    StatSet s;
    s.add("zeta", 2);
    s.add("alpha", 1);
    EXPECT_EQ(s.format(), "alpha = 1\nzeta = 2\n");
}

// ------------------------------------------------------------ Histogram

TEST(Histogram, RecordsAndClampsToLastBucket)
{
    Histogram h(4);
    h.record(0);
    h.record(1);
    h.record(3);
    h.record(99); // clamps into bucket 3
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.raw(), (std::vector<std::uint64_t>{1, 1, 0, 2}));
    EXPECT_DOUBLE_EQ(h.fraction(3), 0.5);
    EXPECT_DOUBLE_EQ(h.fraction(7), 0.0); // out of range
}

TEST(Histogram, EmptyFractionIsZero)
{
    Histogram h(4);
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
}

// ------------------------------------------------------------- registry

TEST(StatRegistry, SnapshotSeesCurrentValues)
{
    std::uint64_t retired = 0;
    std::uint64_t cycles = 0;
    std::uint64_t table[3] = {0, 0, 0};
    Histogram hist(4);

    StatRegistry reg;
    StatGroup core = statGroup(reg, "core");
    core.counter("retired", &retired);
    core.counter("cycles", &cycles);
    core.vector("table", table, 3);
    core.histogram("waits", &hist);
    core.formula("ipc", [&] {
        return cycles ? double(retired) / double(cycles) : 0.0;
    });

    // Values read at snapshot time, not registration time.
    retired = 30;
    cycles = 10;
    table[1] = 7;
    hist.record(2);

    const StatSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("core.retired"), 30u);
    EXPECT_EQ(snap.counter("core.absent"), 0u);
    EXPECT_DOUBLE_EQ(snap.value("core.ipc"), 3.0);
    EXPECT_DOUBLE_EQ(snap.value("core.cycles"), 10.0); // counter fallback
    EXPECT_EQ(snap.vec("core.table"),
              (std::vector<std::uint64_t>{0, 7, 0}));
    EXPECT_EQ(snap.vec("core.waits"),
              (std::vector<std::uint64_t>{0, 0, 1, 0}));
    EXPECT_DOUBLE_EQ(snap.ratio("core.retired", "core.cycles"), 3.0);
}

TEST(StatRegistry, ChildGroupsNest)
{
    std::uint64_t v = 9;
    StatRegistry reg;
    statGroup(reg, "core").group("bypass").counter("uses", &v);
    EXPECT_EQ(reg.snapshot().counter("core.bypass.uses"), 9u);
}

TEST(StatRegistry, DuplicateNamesThrow)
{
    std::uint64_t v = 0;
    StatRegistry reg;
    reg.addCounter("x", &v);
    EXPECT_THROW(reg.addCounter("x", &v), std::logic_error);
    EXPECT_THROW(reg.addFormula("x", [] { return 0.0; }),
                 std::logic_error);
}

// ---------------------------------------------------------- JSON travel

TEST(StatSnapshot, RendersTheStatsObject)
{
    std::uint64_t big = 0xffff'ffff'ffff'fff0ull; // needs exact u64
    Histogram hist(3);
    hist.record(1);

    StatRegistry reg;
    StatGroup g = statGroup(reg, "core");
    g.counter("big", &big);
    g.histogram("h", &hist);
    g.formula("f", [] { return 0.125; });
    const StatSnapshot snap = reg.snapshot();

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

} // namespace
