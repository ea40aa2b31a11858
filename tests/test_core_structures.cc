/**
 * @file
 * Unit tests for the core's bookkeeping structures: rename table with
 * walk-based recovery, ROB, scoreboard, scheduler bank, and the machine
 * configuration factory and name tables.
 */

#include <gtest/gtest.h>

#include "core/machine_config.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "core/scheduler.hh"
#include "core/scoreboard.hh"

namespace rbsim
{
namespace
{

TEST(Rename, InitialIdentityMapping)
{
    RenameTable rt(64);
    for (unsigned r = 0; r < numArchRegs; ++r)
        EXPECT_EQ(rt.lookup(r), r);
    EXPECT_EQ(rt.freeCount(), 64u - numArchRegs);
}

TEST(Rename, AllocateRemapsAndReportsPrevious)
{
    RenameTable rt(64);
    const auto [fresh, prev] = rt.allocate(5);
    EXPECT_EQ(prev, 5u);
    EXPECT_NE(fresh, 5u);
    EXPECT_EQ(rt.lookup(5), fresh);
}

TEST(Rename, UndoRestoresInReverseOrder)
{
    RenameTable rt(64);
    const auto [p1, prev1] = rt.allocate(3);
    const auto [p2, prev2] = rt.allocate(3);
    const auto [p3, prev3] = rt.allocate(7);
    EXPECT_EQ(prev2, p1);
    // Squash walk: youngest first.
    rt.undo(7, p3, prev3);
    rt.undo(3, p2, prev2);
    rt.undo(3, p1, prev1);
    EXPECT_EQ(rt.lookup(3), 3u);
    EXPECT_EQ(rt.lookup(7), 7u);
    EXPECT_EQ(rt.freeCount(), 64u - numArchRegs);
}

TEST(Rename, ReleaseRecyclesPreviousMapping)
{
    RenameTable rt(34); // only two spare registers
    const auto [p1, prev1] = rt.allocate(1);
    const auto [p2, prev2] = rt.allocate(1);
    (void)p2;
    EXPECT_FALSE(rt.hasFree());
    rt.release(prev1); // retire of the first writer frees arch reg 1
    EXPECT_TRUE(rt.hasFree());
    const auto [p3, prev3] = rt.allocate(2);
    (void)prev3;
    EXPECT_EQ(p3, prev1);
    (void)p1;
}

TEST(Rob, AllocGetRetire)
{
    Rob rob(4);
    rob.alloc(10).pcIndex = 100;
    rob.alloc(11).pcIndex = 101;
    EXPECT_EQ(rob.get(10).pcIndex, 100u);
    EXPECT_EQ(rob.get(11).pcIndex, 101u);
    EXPECT_TRUE(rob.contains(10));
    EXPECT_FALSE(rob.contains(12));
    rob.retireHead();
    EXPECT_FALSE(rob.contains(10));
    EXPECT_EQ(rob.head().seq, 11u);
}

TEST(Rob, SquashWalksYoungestFirst)
{
    Rob rob(8);
    for (std::uint64_t s = 1; s <= 5; ++s)
        rob.alloc(s);
    std::vector<std::uint64_t> undone;
    rob.squashAfter(2, [&undone](RobEntry &e) { undone.push_back(e.seq); });
    EXPECT_EQ(undone, (std::vector<std::uint64_t>{5, 4, 3}));
    EXPECT_EQ(rob.size(), 2u);
    EXPECT_TRUE(rob.contains(2));
}

TEST(Rob, CapacityTracking)
{
    Rob rob(2);
    rob.alloc(1);
    EXPECT_TRUE(rob.hasSpace());
    rob.alloc(2);
    EXPECT_FALSE(rob.hasSpace());
}

TEST(Scoreboard, PendingThenProducedThenCleared)
{
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 4);
    Scoreboard sb(64);
    // Fresh registers are always-available.
    EXPECT_TRUE(operandAvail(cfg, sb.of(10), false, 0, 0));
    sb.markPending(10);
    EXPECT_FALSE(operandAvail(cfg, sb.of(10), false, 0, 1000));
    sb.produce(10, ProdAvail::make(50, LatencyPair{1, 1}, 3, 0));
    EXPECT_FALSE(operandAvail(cfg, sb.of(10), false, 0, 50));
    EXPECT_TRUE(operandAvail(cfg, sb.of(10), false, 0, 51));
    sb.clear(10);
    EXPECT_TRUE(operandAvail(cfg, sb.of(10), false, 0, 0));
}

TEST(Scoreboard, BypassCaseClassification)
{
    EXPECT_EQ(classifyBypass(false, true), BypassCase::TcToTc);
    EXPECT_EQ(classifyBypass(false, false), BypassCase::TcToRb);
    EXPECT_EQ(classifyBypass(true, false), BypassCase::RbToRb);
    EXPECT_EQ(classifyBypass(true, true), BypassCase::RbToTc);
}

TEST(Scheduler, RoundRobinPairSteering)
{
    SchedulerBank bank(4, 32, 2, 128);
    std::vector<unsigned> targets;
    for (int i = 0; i < 8; ++i) {
        targets.push_back(bank.steerTarget());
        bank.advanceSteering();
    }
    EXPECT_EQ(targets,
              (std::vector<unsigned>{0, 0, 1, 1, 2, 2, 3, 3}));
    EXPECT_EQ(bank.steerTarget(), 0u); // wraps
}

TEST(Scheduler, SkipsNotReadyEntries)
{
    // Only latched bits are visited: the odd seqs have neither a ready
    // nor an attention bit, so select neither offers nor attends them.
    SchedulerBank bank(1, 8, 2, 16);
    for (std::uint64_t s = 1; s <= 4; ++s) {
        const SchedulerBank::SlotRef ref = bank.insert(0, s);
        bank.setReady(ref, s % 2 == 0);
    }
    std::vector<std::uint64_t> issued;
    bool attended = false;
    bank.selectWakeup(
        1,
        [&issued](std::uint64_t s, unsigned) {
            issued.push_back(s);
            return true;
        },
        [&attended](std::uint64_t, unsigned, SchedulerBank::SlotRef) {
            attended = true;
        });
    EXPECT_EQ(issued, (std::vector<std::uint64_t>{2, 4}));
    EXPECT_FALSE(attended);
    EXPECT_EQ(bank.occupancyOf(0), 2u);
}

TEST(Scheduler, SquashRemovesYoungEntries)
{
    SchedulerBank bank(2, 8, 2, 16);
    bank.insert(0, 1);
    bank.insert(1, 2);
    bank.insert(0, 3);
    bank.squashAfter(1);
    EXPECT_EQ(bank.occupancy(), 1u);
    EXPECT_EQ(bank.occupancyOf(0), 1u);
}

TEST(Scheduler, CapacityPerScheduler)
{
    SchedulerBank bank(2, 2, 2, 8);
    bank.insert(0, 1);
    bank.insert(0, 2);
    EXPECT_FALSE(bank.hasSpace(0));
    EXPECT_TRUE(bank.hasSpace(1));
}

TEST(MachineConfig, PaperGeometry)
{
    const MachineConfig m8 = MachineConfig::make(MachineKind::Ideal, 8);
    EXPECT_EQ(m8.numSchedulers, 4u);
    EXPECT_EQ(m8.schedEntries, 32u);
    EXPECT_EQ(m8.numClusters, 2u);
    const MachineConfig m4 =
        MachineConfig::make(MachineKind::Baseline, 4);
    EXPECT_EQ(m4.numSchedulers, 2u);
    EXPECT_EQ(m4.schedEntries, 64u);
    EXPECT_EQ(m4.numClusters, 1u);
    // The window is 128 entries in both.
    EXPECT_EQ(m8.numSchedulers * m8.schedEntries, 128u);
    EXPECT_EQ(m4.numSchedulers * m4.schedEntries, 128u);
}

TEST(MachineConfig, Table3Latencies)
{
    const MachineConfig base =
        MachineConfig::make(MachineKind::Baseline, 8);
    const MachineConfig rb = MachineConfig::make(MachineKind::RbFull, 8);
    const MachineConfig ideal = MachineConfig::make(MachineKind::Ideal, 8);

    EXPECT_EQ(base.latencyOf(OpClass::IntArith).early, 2u);
    EXPECT_EQ(rb.latencyOf(OpClass::IntArith).early, 1u);
    EXPECT_EQ(rb.latencyOf(OpClass::IntArith).late, 3u);
    EXPECT_EQ(ideal.latencyOf(OpClass::IntArith).early, 1u);

    EXPECT_EQ(rb.latencyOf(OpClass::ShiftLeft).early, 3u);
    EXPECT_EQ(rb.latencyOf(OpClass::ShiftLeft).late, 5u);
    EXPECT_EQ(rb.latencyOf(OpClass::ShiftRight).late, 3u);
    EXPECT_EQ(rb.latencyOf(OpClass::IntMul).late, 10u);
    EXPECT_EQ(rb.latencyOf(OpClass::FpDiv).early, 32u);

    EXPECT_EQ(base.storeCompleteLat, 1u);
    EXPECT_EQ(rb.storeCompleteLat, 3u);
    EXPECT_EQ(base.branchResolveLat(), 2u);
    EXPECT_EQ(rb.branchResolveLat(), 1u);

    EXPECT_TRUE(rb.isDualFormat(OpClass::IntArith));
    EXPECT_FALSE(rb.isDualFormat(OpClass::IntLogical));
    EXPECT_FALSE(ideal.isDualFormat(OpClass::IntArith));
}

TEST(MachineConfig, IdealLimitedLabels)
{
    EXPECT_EQ(MachineConfig::makeIdealLimited(8, 0b111).label,
              "Ideal (full)");
    EXPECT_EQ(MachineConfig::makeIdealLimited(8, 0b110).label,
              "Ideal No-1");
    EXPECT_EQ(MachineConfig::makeIdealLimited(8, 0b100).label,
              "Ideal No-1,2");
    EXPECT_EQ(MachineConfig::makeIdealLimited(8, 0b001).label,
              "Ideal No-2,3");
}

TEST(MachineConfig, OneNameTableForKindsAndSteering)
{
    // Every caller that parses a machine or steering name (serve, fuzz
    // repro headers, run_asm, workload_explorer) reads these tables.
    for (const MachineKind k :
         {MachineKind::Baseline, MachineKind::RbLimited,
          MachineKind::RbFull, MachineKind::Ideal}) {
        EXPECT_EQ(machineKindFromName(machineName(k)), k);
        EXPECT_EQ(machineKindFromName(machineAlias(k)), k);
        EXPECT_EQ(MachineConfig::make(k, 4).label, machineName(k));
    }
    EXPECT_STREQ(machineName(MachineKind::RbLimited), "RB-limited");
    EXPECT_STREQ(machineAlias(MachineKind::RbLimited), "rblim");
    for (const char *bad : {"", "foo", "rb-full", "RBFULL", "Ideal "})
        EXPECT_FALSE(machineKindFromName(bad)) << bad;

    for (const Steering s :
         {Steering::RoundRobinPairs, Steering::DependenceAware,
          Steering::ClassPartition})
        EXPECT_EQ(steeringFromName(steeringName(s)), s);
    EXPECT_STREQ(steeringName(Steering::DependenceAware), "dep-aware");
    EXPECT_FALSE(steeringFromName("round-robin"));
}

} // namespace
} // namespace rbsim
