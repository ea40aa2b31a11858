/**
 * @file
 * Unit tests for the fetch engine: width/block limits, prediction at
 * fetch, HALT/JMP parking, redirect, per-control-instruction repair
 * snapshots, and statistics utilities.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "common/strutil.hh"
#include "frontend/fetch.hh"
#include "isa/assembler.hh"

namespace rbsim
{
namespace
{

struct FetchRig
{
    explicit FetchRig(const Program &p)
        : prog(p), cfg(MachineConfig::make(MachineKind::Ideal, 8)),
          mem(cfg), fetch(cfg, prog, mem), snaps(256)
    {}

    /** One fetch cycle; snapshots accumulate in `snaps`. */
    unsigned
    fetchCycle(Cycle now, std::vector<FetchedInst> &out)
    {
        return fetch.fetchCycle(now, out, snaps);
    }

    /** Advance until the engine delivers something (icache warmup). */
    std::vector<FetchedInst>
    fetchWarm(Cycle &now)
    {
        for (int tries = 0; tries < 300; ++tries) {
            std::vector<FetchedInst> got;
            fetchCycle(now, got);
            ++now;
            if (!got.empty())
                return got;
            if (fetch.parked())
                return {};
        }
        return {};
    }

    Program prog;
    MachineConfig cfg;
    MemHierarchy mem;
    FetchEngine fetch;
    StaticRing<BpSnapshot> snaps;
};

TEST(Fetch, DeliversUpToEightStraightLine)
{
    FetchRig rig(assemble(R"(
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        halt
    )"));
    Cycle now = 0;
    const auto got = rig.fetchWarm(now);
    EXPECT_EQ(got.size(), 8u);
    EXPECT_EQ(got[0].pcIndex, 0u);
    EXPECT_EQ(got[7].pcIndex, 7u);
}

TEST(Fetch, StopsAfterTwoBasicBlocks)
{
    // Two taken branches in quick succession: the second block ends the
    // cycle's fetch even though width remains.
    FetchRig rig(assemble(R"(
        a:  br b
            nop
        b:  br c
            nop
        c:  nop
            halt
    )"));
    Cycle now = 0;
    const auto got = rig.fetchWarm(now);
    // br (block 1 ends) + br (block 2 ends) -> stop.
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].pcIndex, 0u);
    EXPECT_EQ(got[1].pcIndex, 2u);
}

TEST(Fetch, FollowsPredictedTakenBranchSameCycle)
{
    FetchRig rig(assemble(R"(
            br target
            nop
            nop
        target:
            nop
            halt
    )"));
    Cycle now = 0;
    const auto got = rig.fetchWarm(now);
    ASSERT_GE(got.size(), 2u);
    EXPECT_EQ(got[0].pcIndex, 0u);
    EXPECT_TRUE(got[0].predTaken);
    EXPECT_EQ(got[1].pcIndex, 3u); // the target, same cycle
}

TEST(Fetch, ParksOnHalt)
{
    FetchRig rig(assemble("nop\nhalt\nnop\nnop"));
    Cycle now = 0;
    const auto got = rig.fetchWarm(now);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[1].inst.op, Opcode::HALT);
    EXPECT_TRUE(rig.fetch.parked());
    std::vector<FetchedInst> more;
    EXPECT_EQ(rig.fetchCycle(now, more), 0u);
    EXPECT_TRUE(more.empty());
}

TEST(Fetch, RedirectReawakensParkedEngine)
{
    FetchRig rig(assemble("halt\nnop\nhalt"));
    Cycle now = 0;
    rig.fetchWarm(now);
    ASSERT_TRUE(rig.fetch.parked());
    rig.fetch.redirect(1, now);
    now += 1;
    const auto got = rig.fetchWarm(now);
    ASSERT_GE(got.size(), 1u);
    EXPECT_EQ(got[0].pcIndex, 1u);
}

TEST(Fetch, UnpredictableJmpStalls)
{
    // A JMP through a register with cold RAS/BTB parks fetch until the
    // core resolves it.
    FetchRig rig(assemble(R"(
            ldiq r4, 0x10008
            jmp r9, r4
            nop
            halt
    )"));
    Cycle now = 0;
    const auto got = rig.fetchWarm(now);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_TRUE(got[1].stalledJmp);
    EXPECT_TRUE(rig.fetch.parked());
}

TEST(Fetch, ControlInstructionsSnapshotPredictorState)
{
    // Two calls around a conditional branch, straight-line so every
    // prediction leads to the same next instruction.
    FetchRig rig(assemble(R"(
            .entry main
        f:  nop
            ret r26
        main:
            ldiq r1, 1
            bsr r26, f
            beq r1, next
        next:
            bsr r26, f
            halt
    )"));
    Cycle now = 0;
    std::vector<FetchedInst> all;
    for (int i = 0; i < 400 && !rig.fetch.parked(); ++i)
        rig.fetchCycle(now++, all);
    ASSERT_TRUE(rig.fetch.parked());
    ASSERT_EQ(all.back().inst.op, Opcode::HALT);

    // Exactly one snapshot per control instruction, in fetch order, each
    // holding the state from just before that instruction: replay the
    // fetch stream on a shadow predictor and RAS.
    HybridPredictor shadow;
    Ras shadow_ras;
    std::vector<BpSnapshot> bsr_snaps;
    std::size_t next = 0;
    for (const FetchedInst &f : all) {
        EXPECT_EQ(f.isCtrl, isControl(f.inst.op));
        if (!f.isCtrl)
            continue;
        ASSERT_LT(next, rig.snaps.size()) << "pc " << f.pcIndex;
        const BpSnapshot &got = rig.snaps[next++];
        BpSnapshot want;
        want.globalHistory = shadow.globalHistory();
        shadow_ras.save(want);
        EXPECT_EQ(got.globalHistory, want.globalHistory) << f.pcIndex;
        EXPECT_EQ(got.rasTop, want.rasTop) << f.pcIndex;
        EXPECT_EQ(got.ras, want.ras) << f.pcIndex;
        if (isCondBranch(f.inst.op)) {
            BpIndices idx;
            EXPECT_EQ(shadow.predict(f.pcIndex, &idx), f.predTaken);
            EXPECT_EQ(got.indices.gidx, idx.gidx);
            EXPECT_EQ(got.indices.lidx, idx.lidx);
            EXPECT_EQ(got.indices.cidx, idx.cidx);
            shadow.speculate(f.pcIndex, f.predTaken);
        } else if (f.inst.op == Opcode::BSR) {
            bsr_snaps.push_back(got);
            shadow_ras.push(rig.prog.byteAddrOf(f.pcIndex + 1));
        } else if (f.inst.op == Opcode::JMP) {
            shadow_ras.pop();
        }
    }
    // No snapshot for any other instruction: bsr, ret, beq, bsr, ret.
    EXPECT_EQ(next, 5u);
    EXPECT_EQ(rig.snaps.size(), next);

    // The second bsr's snapshot is the state before it pushed: the top
    // is back where the first return left it, the slot above still
    // holds the first call's return address, and the history holds the
    // beq's predicted direction.
    ASSERT_EQ(bsr_snaps.size(), 2u);
    const std::uint64_t first_bsr = rig.prog.entry + 1;
    EXPECT_EQ(bsr_snaps[1].rasTop, bsr_snaps[0].rasTop);
    EXPECT_EQ(bsr_snaps[1].ras[(bsr_snaps[1].rasTop + 1) % 16],
              rig.prog.byteAddrOf(first_bsr + 1));
    EXPECT_EQ(bsr_snaps[1].globalHistory & 1,
              all[4].predTaken ? 1u : 0u);
}

TEST(Stats, Means)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(harmonicMean({1.0, 2.0, 4.0}), 3.0 / 1.75, 1e-12);
    EXPECT_EQ(arithmeticMean({}), 0.0);
}

TEST(Strutil, Helpers)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(toLower("AbC"), "abc");
    EXPECT_TRUE(startsWith("hello", "he"));
    EXPECT_FALSE(startsWith("h", "he"));
    EXPECT_EQ(splitTokens("a, b,,c", ", "),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(fmtDouble(1.2345, 2), "1.23");
}

} // namespace
} // namespace rbsim
