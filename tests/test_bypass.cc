/**
 * @file
 * Tests for the bypass availability model (paper §4.1, §4.2): full
 * networks, the RB-limited network's holes, Figure 14's level-removal
 * variants, cross-cluster delay, the Figure 5/7 pipeline diagrams, and
 * the Figure 8 shift-register pattern that defines them all.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "core/bypass.hh"

namespace rbsim
{
namespace
{

/** A dual-format producer (RB arithmetic on the RB machines). */
ProdAvail
dualProducer(const MachineConfig &cfg, Cycle select, unsigned cluster = 0)
{
    return ProdAvail::make(select, cfg.latencyOf(OpClass::IntArith),
                           cfg.numBypassLevels,
                           static_cast<std::uint8_t>(cluster));
}

/** A TC producer (e.g. a logical op: latency 1/1). */
ProdAvail
tcProducer(const MachineConfig &cfg, Cycle select, unsigned cluster = 0)
{
    return ProdAvail::make(select, cfg.latencyOf(OpClass::IntLogical),
                           cfg.numBypassLevels,
                           static_cast<std::uint8_t>(cluster));
}

TEST(Bypass, IdealFullContinuousFromEarly)
{
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 4);
    const ProdAvail p = dualProducer(cfg, 10); // early = late = 11
    EXPECT_FALSE(operandAvail(cfg, p, false, 0, 10));
    for (Cycle t = 11; t < 30; ++t)
        EXPECT_TRUE(operandAvail(cfg, p, false, 0, t)) << t;
    EXPECT_EQ(p.rfTc, 14u); // 3 bypass levels then the register file
}

TEST(Bypass, BaselineArithHasTwoCycleLatency)
{
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::Baseline, 4);
    const ProdAvail p = dualProducer(cfg, 10); // early = 12
    EXPECT_FALSE(operandAvail(cfg, p, false, 0, 11));
    EXPECT_TRUE(operandAvail(cfg, p, false, 0, 12));
}

TEST(Bypass, RbFullServesRbAtEarlyAndTcAtLate)
{
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);
    const ProdAvail p = dualProducer(cfg, 10); // early 11, late 13
    EXPECT_TRUE(p.dual);
    // RB-capable consumer: back-to-back.
    EXPECT_TRUE(operandAvail(cfg, p, false, 0, 11));
    EXPECT_TRUE(operandAvail(cfg, p, false, 0, 12));
    // TC consumer: waits for the converter.
    EXPECT_FALSE(operandAvail(cfg, p, true, 0, 11));
    EXPECT_FALSE(operandAvail(cfg, p, true, 0, 12));
    EXPECT_TRUE(operandAvail(cfg, p, true, 0, 13));
    // Both continuous afterward.
    for (Cycle t = 13; t < 25; ++t) {
        EXPECT_TRUE(operandAvail(cfg, p, false, 0, t));
        EXPECT_TRUE(operandAvail(cfg, p, true, 0, t));
    }
}

TEST(Bypass, RbLimitedHasTwoCycleHoleForRbConsumers)
{
    // Paper section 4.2: "the result ... is available in redundant binary
    // format immediately after it is produced, and then there is a
    // 2-cycle hole in data availability. After that, the result is
    // available from the register file."
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::RbLimited, 4);
    const ProdAvail p = dualProducer(cfg, 10); // early 11, late 13, rf 14
    EXPECT_TRUE(operandAvail(cfg, p, false, 0, 11));  // BYP-1
    EXPECT_FALSE(operandAvail(cfg, p, false, 0, 12)); // hole
    EXPECT_FALSE(operandAvail(cfg, p, false, 0, 13)); // hole
    EXPECT_TRUE(operandAvail(cfg, p, false, 0, 14));  // register file
    // TC consumers: BYP-3 then the register file — continuous.
    EXPECT_FALSE(operandAvail(cfg, p, true, 0, 12));
    EXPECT_TRUE(operandAvail(cfg, p, true, 0, 13));
    EXPECT_TRUE(operandAvail(cfg, p, true, 0, 14));
}

TEST(Bypass, RbLimitedTcProducerKeepsLevelsOneAndThree)
{
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::RbLimited, 4);
    const ProdAvail p = tcProducer(cfg, 10); // early = late = 11
    // TC consumer: BYP-1 (TC data), hole at BYP-2, BYP-3, then RF.
    EXPECT_TRUE(operandAvail(cfg, p, true, 0, 11));
    EXPECT_FALSE(operandAvail(cfg, p, true, 0, 12));
    EXPECT_TRUE(operandAvail(cfg, p, true, 0, 13));
    EXPECT_TRUE(operandAvail(cfg, p, true, 0, 14));
    // RB-input consumer: BYP-3 is not wired into RB-input units.
    EXPECT_TRUE(operandAvail(cfg, p, false, 0, 11));
    EXPECT_FALSE(operandAvail(cfg, p, false, 0, 12));
    EXPECT_FALSE(operandAvail(cfg, p, false, 0, 13));
    EXPECT_TRUE(operandAvail(cfg, p, false, 0, 14));
}

TEST(Bypass, PaperFigure7Schedule)
{
    // Dependency graph of Figure 4 on the RB-limited machine: the SUB
    // depends on the ADD (selected at s+1) and the SLL; with the limited
    // network the SUB falls into the holes of both and retrieves its
    // operands from the register file, 3 cycles later than the Figure 5
    // full-bypass schedule. We reproduce the select-cycle arithmetic with
    // 1-cycle RB ops as in the paper's example.
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::RbLimited, 4);
    LatencyPair one_cycle{1, 3};

    // SLL selected at 0, ADD at 1 (catches SLL's BYP-1), both RB-output.
    const ProdAvail sll = ProdAvail::make(0, one_cycle, 3, 0);
    const ProdAvail add = ProdAvail::make(1, one_cycle, 3, 0);

    // ADD (RB consumer of SLL) is selectable at 1: BYP-1 back-to-back.
    EXPECT_TRUE(operandAvail(cfg, sll, false, 0, 1));

    // The AND is a TC consumer of the SLL: selectable at its late cycle.
    EXPECT_EQ(firstAvail(cfg, sll, true, 0, 1), 3u);

    // The SUB needs SLL and ADD as RB inputs. ADD's BYP-1 is at 2, but
    // SLL is in its hole at 2 (register file only from 4). Joint first
    // cycle where both are available:
    Cycle t = 2;
    while (!(operandAvail(cfg, sll, false, 0, t) &&
             operandAvail(cfg, add, false, 0, t)))
        ++t;
    EXPECT_EQ(t, 5u); // matches Figure 7: RF read at cycle 6 = select 5

    // With the full network (RB-full), the SUB issues at 2, as Figure 5.
    const MachineConfig full = MachineConfig::make(MachineKind::RbFull, 4);
    t = 2;
    while (!(operandAvail(full, sll, false, 0, t) &&
             operandAvail(full, add, false, 0, t)))
        ++t;
    EXPECT_EQ(t, 2u);
}

class LimitedLevels : public ::testing::TestWithParam<std::uint8_t>
{
};

TEST_P(LimitedLevels, RemovedLevelsAreHolesRfAlwaysServes)
{
    const std::uint8_t mask = GetParam();
    const MachineConfig cfg = MachineConfig::makeIdealLimited(8, mask);
    const ProdAvail p = tcProducer(cfg, 20); // early 21, rf 24
    for (unsigned k = 1; k <= 3; ++k) {
        const bool present = mask & (1u << (k - 1));
        const Cycle t = 21 + (k - 1);
        if (t >= p.rfTc)
            continue;
        EXPECT_EQ(operandAvail(cfg, p, false, 0, t), present)
            << "level " << k;
    }
    for (Cycle t = p.rfTc; t < p.rfTc + 5; ++t)
        EXPECT_TRUE(operandAvail(cfg, p, false, 0, t));
    EXPECT_FALSE(operandAvail(cfg, p, false, 0, 20));
}

INSTANTIATE_TEST_SUITE_P(Fig14Masks, LimitedLevels,
                         ::testing::Values<std::uint8_t>(
                             0b111, 0b110, 0b101, 0b011, 0b100, 0b001));

TEST(Bypass, CrossClusterAddsOneCycle)
{
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 8);
    ASSERT_EQ(cfg.numClusters, 2u);
    const ProdAvail p = tcProducer(cfg, 10, 0); // early 11
    // Same cluster: 11. Other cluster: 12.
    EXPECT_TRUE(operandAvail(cfg, p, false, 0, 11));
    EXPECT_FALSE(operandAvail(cfg, p, false, 1, 11));
    EXPECT_TRUE(operandAvail(cfg, p, false, 1, 12));
}

TEST(Bypass, HoleUnawareSchedulerWaitsForContinuousRegion)
{
    // Ablation: without the section 4.3 interleaved-pattern wakeup, the
    // scheduler can only represent "available from cycle X onward", so on
    // RB-limited the BYP-1 catch is unusable and RB consumers wait for
    // the register file.
    MachineConfig cfg = MachineConfig::make(MachineKind::RbLimited, 4);
    cfg.holeAwareScheduling = false;
    const ProdAvail p = dualProducer(cfg, 10); // early 11, rf 14
    EXPECT_FALSE(operandAvail(cfg, p, false, 0, 11));
    EXPECT_FALSE(operandAvail(cfg, p, false, 0, 13));
    EXPECT_TRUE(operandAvail(cfg, p, false, 0, 14));
    // TC consumers are continuous from late anyway.
    EXPECT_TRUE(operandAvail(cfg, p, true, 0, 13));
}

/** `low` in the low byte, ones above it: the register file. */
constexpr std::uint64_t
pattern(std::uint8_t low)
{
    return ~std::uint64_t{0} << 8 | low;
}

struct PatternCase
{
    const char *what;
    MachineKind kind;
    unsigned width;
    bool dual;                 //!< dual-format (RB arith) producer
    bool needsTc;              //!< TC-requiring consumer
    std::uint8_t levelMask;    //!< Figure 14 bypass levels present
    bool holeAware;
    unsigned crossDelay;       //!< producer in cluster 0, consumer in 1
    std::uint64_t want;
};

TEST(Bypass, AvailPatternTable)
{
    // The Figure 8 pattern, bit i = select at early + i, on every
    // machine (4-wide: one cluster; 8-wide: consumer in the other
    // cluster). Window: 3 bypass levels, register file from bit 3.
    // "TC<-RB" is a TC-requiring consumer of a dual-format producer.
    const std::vector<PatternCase> cases = {
        {"Baseline, TC consumer", MachineKind::Baseline, 4, false, true, 7,
         true, 0, pattern(0b11111111)},
        {"Baseline, RB consumer", MachineKind::Baseline, 4, false, false, 7,
         true, 0, pattern(0b11111111)},
        {"Ideal, RB consumer", MachineKind::Ideal, 4, true, false, 7, true, 0,
         pattern(0b11111111)},
        {"RB-full RB<-RB", MachineKind::RbFull, 4, true, false, 7, true, 0,
         pattern(0b11111111)},
        {"RB-full TC<-RB", MachineKind::RbFull, 4, true, true, 7, true, 0,
         pattern(0b11111100)},
        {"RB-full TC<-TC", MachineKind::RbFull, 4, false, true, 7, true, 0,
         pattern(0b11111111)},
        {"RB-limited RB<-RB", MachineKind::RbLimited, 4, true, false, 7, true,
         0, pattern(0b11111001)},
        {"RB-limited TC<-RB", MachineKind::RbLimited, 4, true, true, 7, true,
         0, pattern(0b11111100)},
        {"RB-limited RB<-TC", MachineKind::RbLimited, 4, false, false, 7,
         true, 0, pattern(0b11111001)},
        {"RB-limited TC<-TC", MachineKind::RbLimited, 4, false, true, 7, true,
         0, pattern(0b11111101)},
        // Hole-unaware wakeup keeps the top run of ones only.
        {"unaware RB<-RB", MachineKind::RbLimited, 4, true, false, 7, false,
         0, pattern(0b11111000)},
        {"unaware TC<-RB", MachineKind::RbLimited, 4, true, true, 7, false, 0,
         pattern(0b11111100)},
        {"unaware TC<-TC", MachineKind::RbLimited, 4, false, true, 7, false,
         0, pattern(0b11111100)},
        // Figure 14: level k catches at bit k-1 when present.
        {"No-1", MachineKind::Ideal, 4, false, true, 0b110, true, 0,
         pattern(0b11111110)},
        {"No-2", MachineKind::Ideal, 4, false, true, 0b101, true, 0,
         pattern(0b11111101)},
        {"No-3", MachineKind::Ideal, 4, false, true, 0b011, true, 0,
         pattern(0b11111011)},
        {"No-1,2", MachineKind::Ideal, 4, false, true, 0b100, true, 0,
         pattern(0b11111100)},
        {"No-2,3", MachineKind::Ideal, 4, false, true, 0b001, true, 0,
         pattern(0b11111001)},
        // Cross-cluster delays 0, 1, 2 and past the window: catches move
        // up, the register file does not.
        {"Ideal cross 0", MachineKind::Ideal, 8, false, true, 7, true, 0,
         pattern(0b11111111)},
        {"Ideal cross 1", MachineKind::Ideal, 8, false, true, 7, true, 1,
         pattern(0b11111110)},
        {"Ideal cross 2", MachineKind::Ideal, 8, false, true, 7, true, 2,
         pattern(0b11111100)},
        {"Ideal cross 9", MachineKind::Ideal, 8, false, true, 7, true, 9,
         pattern(0b11111000)},
        {"RB-full TC<-RB cross 1", MachineKind::RbFull, 8, true, true, 7, true,
         1, pattern(0b11111000)},
        {"RB-full RB<-RB cross 2", MachineKind::RbFull, 8, true, false, 7,
         true, 2, pattern(0b11111100)},
        {"RB-limited RB<-RB cross 0", MachineKind::RbLimited, 8, true, false,
         7, true, 0, pattern(0b11111001)},
        {"RB-limited RB<-RB cross 1", MachineKind::RbLimited, 8, true, false,
         7, true, 1, pattern(0b11111010)},
        {"RB-limited RB<-RB cross 2", MachineKind::RbLimited, 8, true, false,
         7, true, 2, pattern(0b11111100)},
        {"RB-limited TC<-TC cross 1", MachineKind::RbLimited, 8, false, true,
         7, true, 1, pattern(0b11111010)},
        {"RB-limited TC<-TC cross 4000000000", MachineKind::RbLimited, 8,
         false, true, 7, true, 4'000'000'000u, pattern(0b11111000)},
    };
    for (const PatternCase &c : cases) {
        MachineConfig cfg = MachineConfig::make(c.kind, c.width);
        cfg.bypassLevelMask = c.levelMask;
        cfg.holeAwareScheduling = c.holeAware;
        cfg.crossClusterDelay = c.crossDelay;
        const unsigned consumer = c.width == 8 ? 1 : 0;
        const ProdAvail p =
            c.dual ? dualProducer(cfg, 10) : tcProducer(cfg, 10);
        EXPECT_EQ(availPattern(cfg, p, c.needsTc, consumer), c.want)
            << c.what;
        // operandAvail reads one bit; firstAvail counts trailing zeros.
        for (unsigned i = 0; i < 64; ++i) {
            EXPECT_EQ(operandAvail(cfg, p, c.needsTc, consumer, p.early + i),
                      (c.want >> i & 1) != 0)
                << c.what << " bit " << i;
        }
        EXPECT_EQ(firstAvail(cfg, p, c.needsTc, consumer, 0),
                  p.early + std::countr_zero(c.want))
            << c.what;
    }
    // A producer not yet selected offers nothing.
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 4);
    ProdAvail pending;
    pending.early = pending.late = pending.rfTc = neverCycle;
    EXPECT_EQ(availPattern(cfg, pending, false, 0), 0u);
    EXPECT_EQ(availPattern(cfg, ProdAvail::always(), true, 0),
              ~std::uint64_t{0});
}

TEST(Bypass, RbLimitedPatternShowsInterleavedBits)
{
    // The paper's Figure 8 initial value interleaves 0s and 1s according
    // to missing bypass levels: for an RB consumer of a 1-cycle RB op,
    // the pattern from the producer's first availability is
    // 1,0,0,1,1,1,... (BYP-1, the two-cycle hole, the register file).
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::RbLimited, 4);
    const ProdAvail p = dualProducer(cfg, 0); // early 1, rf 4
    EXPECT_EQ(availPattern(cfg, p, false, 0) & 0xffu, 0b11111001u);
}

TEST(Bypass, AlwaysAvailableRecord)
{
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 4);
    const ProdAvail p = ProdAvail::always();
    EXPECT_TRUE(operandAvail(cfg, p, true, 0, 0));
    EXPECT_TRUE(operandAvail(cfg, p, false, 1, 0));
    EXPECT_FALSE(servedByBypass(p, 5));
}

TEST(Bypass, FirstAvailScansHoles)
{
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::RbLimited, 4);
    const ProdAvail p = dualProducer(cfg, 10); // early 11, hole 12-13
    EXPECT_EQ(firstAvail(cfg, p, false, 0, 11), 11u);
    EXPECT_EQ(firstAvail(cfg, p, false, 0, 12), 14u);
}

} // namespace
} // namespace rbsim
