/**
 * @file
 * Statistics toolkit: means, Histogram, the self-registering registry,
 * and StatSnapshot's window difference and JSON rendering.
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

    // Values read at snapshot time, not registration time.
    retired = 30;
    cycles = 10;
    table[1] = 7;
    hist.record(2);

    const StatSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("core.retired"), 30u);
    EXPECT_EQ(snap.counter("core.absent"), 0u);
    EXPECT_TRUE(snap.formulas.empty()); // derived values are not registered
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
    Histogram h(2);
    reg.addCounter("x", &v);
    EXPECT_THROW(reg.addCounter("x", &v), std::logic_error);
    EXPECT_THROW(reg.addVector("x", &v, 1), std::logic_error);
    EXPECT_THROW(reg.addHistogram("x", &h), std::logic_error);
}

// ------------------------------------------------------- window deltas

TEST(StatSnapshot, SinceSubtractsCountersAndBuckets)
{
    std::uint64_t retired = 0;
    std::uint64_t table[3] = {0, 0, 0};
    Histogram hist(4);
    StatRegistry reg;
    StatGroup core = statGroup(reg, "core");
    core.counter("retired", &retired);
    core.vector("table", table, 3);
    core.histogram("waits", &hist);

    retired = 40;
    table[0] = 5;
    hist.record(1, 7);
    const StatSnapshot start = reg.snapshot();
    retired = 100;
    table[0] = 9;
    table[2] = 4;
    hist.record(1);
    hist.record(3, 2);
    const StatSnapshot window = reg.snapshot().since(start);

    EXPECT_EQ(window.counter("core.retired"), 60u);
    EXPECT_EQ(window.vec("core.table"),
              (std::vector<std::uint64_t>{4, 0, 4}));
    EXPECT_EQ(window.vec("core.waits"),
              (std::vector<std::uint64_t>{0, 1, 0, 2}));
    // A snapshot since itself is all zeros, with every name kept.
    const StatSnapshot none = start.since(start);
    EXPECT_EQ(none.counters.size(), start.counters.size());
    EXPECT_EQ(none.counter("core.retired"), 0u);
    EXPECT_EQ(none.vec("core.waits"),
              (std::vector<std::uint64_t>{0, 0, 0, 0}));
    EXPECT_TRUE(none.formulas.empty());
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
    StatSnapshot snap = reg.snapshot();
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

} // namespace
