/**
 * @file
 * Scheduler-bank and wakeup-array tests: oldest-first select from the
 * ROB head's slot (including across the wrap of the slot space), width
 * exhaustion, squash, steering round-robin with reset-on-empty, the
 * randomized select against an oldest-first reference, and
 * whole-machine statistic bit-identity between oracle mode (stepped
 * every cycle, every latched wakeup bit checked against its predicate)
 * and plain idle-skipping runs (including a monolithic 128-entry
 * scheduler, an instruction reading one pending register twice, and
 * the retirement-progress watchdog).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "core/core.hh"
#include "core/machine_config.hh"
#include "core/scheduler.hh"
#include "isa/builder.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace rbsim
{
namespace
{

// --------------------------------------------- select and steering

TEST(Scheduler, WakeupSelectAndSquashAcrossTheWindowWrap)
{
    // A 128-entry ROB (two mask words): the head sits in slot 125 and
    // the younger entries wrap into slots 0..3. Both schedulers must
    // still issue oldest-first, and a squash cutting inside the wrapped
    // part removes exactly the younger entries.
    SchedulerBank bank(2, 64, 2, 128);
    const std::uint64_t head = 3 * 128 + 125;
    std::map<std::uint64_t, SchedulerBank::SlotRef> refs;
    for (std::uint64_t seq = head; seq < head + 7; ++seq)
        refs[seq] = bank.insert(static_cast<unsigned>(seq % 2), seq);
    EXPECT_EQ(refs[head].slot, 125u);
    EXPECT_EQ(refs[head + 3].slot, 0u);
    EXPECT_EQ(refs[head + 6].slot, 3u);

    // Everything ready except the head: attention visits come in age
    // order too (the head is hole-blocked).
    for (const auto &[seq, ref] : refs)
        bank.setReady(ref, seq != head);
    bank.setHole(refs[head], true);
    std::vector<std::uint64_t> issued;
    std::vector<std::uint64_t> attended;
    bank.selectWakeup(
        head,
        [&issued](std::uint64_t seq, unsigned) {
            issued.push_back(seq);
            return true;
        },
        [&attended](std::uint64_t seq, unsigned, SchedulerBank::SlotRef) {
            attended.push_back(seq);
        });
    // Scheduler 0 (even seqs) takes head+1 (slot 126), then wraps to
    // head+3 (slot 0). Scheduler 1 attends the head (slot 125), then
    // takes head+2 (slot 127) and wraps to head+4 (slot 1).
    EXPECT_EQ(attended, (std::vector<std::uint64_t>{head}));
    EXPECT_EQ(issued, (std::vector<std::uint64_t>{head + 1, head + 3,
                                                  head + 2, head + 4}));
    EXPECT_EQ(bank.occupancy(), 3u); // head, head+5, head+6

    // Squash after head+5 (slot 2): only head+6 (slot 3) goes; the head
    // in slot 125 and head+5 survive although their slots straddle it.
    bank.squashAfter(head + 5);
    EXPECT_EQ(bank.occupancy(), 2u);
    EXPECT_TRUE(bank.live(refs[head], bank.genOf(refs[head])));
    EXPECT_TRUE(bank.live(refs[head + 5], bank.genOf(refs[head + 5])));
    EXPECT_FALSE(bank.live(refs[head + 6], bank.genOf(refs[head + 6])));

    // Squash after the head: the wrapped entry goes, the head stays.
    bank.squashAfter(head);
    EXPECT_EQ(bank.occupancy(), 1u);
    EXPECT_TRUE(bank.live(refs[head], bank.genOf(refs[head])));
}

TEST(Scheduler, SelectWidthExhaustionStopsTheScan)
{
    SchedulerBank bank(1, 16, 2, 16);
    std::map<std::uint64_t, SchedulerBank::SlotRef> refs;
    for (std::uint64_t s = 1; s <= 7; ++s)
        refs[s] = bank.insert(0, s);
    // Seqs 1 and 2 are hole-blocked, 3..6 ready, 7 hole-blocked again.
    // Width 2 must pick 3 and 4, and must not even visit entries after
    // the cut: neither the ready 5 and 6 nor the attention entry 7.
    for (std::uint64_t s = 1; s <= 7; ++s) {
        const bool ready = s >= 3 && s <= 6;
        bank.setReady(refs[s], ready);
        bank.setHole(refs[s], !ready);
    }
    std::vector<std::uint64_t> offered;
    std::vector<std::uint64_t> attended;
    bank.selectWakeup(
        1,
        [&offered](std::uint64_t seq, unsigned) {
            offered.push_back(seq);
            return true;
        },
        [&attended](std::uint64_t seq, unsigned, SchedulerBank::SlotRef) {
            attended.push_back(seq);
        });
    EXPECT_EQ(offered, (std::vector<std::uint64_t>{3, 4}));
    EXPECT_EQ(attended, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(bank.occupancy(), 5u);
}

TEST(Scheduler, SteeringRoundRobinByPairs)
{
    SchedulerBank bank(4, 8, 2, 32);
    std::vector<unsigned> targets;
    for (unsigned i = 0; i < 10; ++i) {
        targets.push_back(bank.steerTarget());
        bank.advanceSteering();
    }
    EXPECT_EQ(targets,
              (std::vector<unsigned>{0, 0, 1, 1, 2, 2, 3, 3, 0, 0}));
}

TEST(Scheduler, SquashToEmptyResetsSteering)
{
    SchedulerBank bank(4, 8, 2, 32);
    bank.insert(0, 1);
    // Advance steering mid-pair and onto scheduler 1.
    bank.advanceSteering();
    bank.advanceSteering();
    bank.advanceSteering();
    EXPECT_EQ(bank.steerTarget(), 1u);
    // Partial squash (entry survives): steering state is preserved.
    bank.squashAfter(1);
    EXPECT_EQ(bank.steerTarget(), 1u);
    // Squash to empty: steering restarts pair-aligned at scheduler 0.
    bank.squashAfter(0);
    EXPECT_EQ(bank.occupancy(), 0u);
    EXPECT_EQ(bank.steerTarget(), 0u);
    bank.advanceSteering();
    EXPECT_EQ(bank.steerTarget(), 0u); // first pair stays on scheduler 0
    bank.advanceSteering();
    EXPECT_EQ(bank.steerTarget(), 1u);
}

// ------------------------------------------------- wakeup-array select

TEST(Scheduler, WakeupSlotRefsValidateAgainstReuse)
{
    SchedulerBank bank(1, 8, 2, 8);
    const auto r1 = bank.insert(0, 1);
    const auto g1 = bank.genOf(r1);
    EXPECT_TRUE(bank.live(r1, g1));
    bank.squashAfter(0);
    EXPECT_FALSE(bank.live(r1, g1));
    const auto r2 = bank.insert(0, 9); // one ROB lap later: slot 1 again
    EXPECT_EQ(r2.slot, r1.slot);
    EXPECT_FALSE(bank.live(r1, g1)); // old generation stays dead
    EXPECT_TRUE(bank.live(r2, bank.genOf(r2)));
}

TEST(Scheduler, SeqCheckAcceptsRecycledSlotButGenCheckDoesNot)
{
    // Why wakeup-event validation is (SlotRef, gen), not the slot's
    // seq: a squash rewinds the core's sequence counter
    // (flushAfter sets nextSeq = branch.seq + 1), so the instruction
    // dispatched right after a squash reuses both the freed slot AND
    // the squashed occupant's seq. A seq-based check cannot tell the
    // two occupancies apart; the generation counter can.
    SchedulerBank bank(1, 8, 2, 8);
    const auto r1 = bank.insert(0, 7);
    const auto g1 = bank.genOf(r1);
    bank.squashAfter(6);               // seq 7 squashed, slot freed
    const auto r2 = bank.insert(0, 7); // recycled seq, same slot
    ASSERT_EQ(r2.slot, r1.slot);
    ASSERT_EQ(r2.sched, r1.sched);
    // A seq check is fooled: the slot is valid and holds seq 7 again,
    // so a stale queued event for the squashed instruction would pass.
    std::vector<std::uint64_t> seqs;
    bank.forEachEntry(0, [&](SchedulerBank::SlotRef r, std::uint64_t seq) {
        if (r.slot == r1.slot)
            seqs.push_back(seq);
    });
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{7}));
    // live() is not: the reuse bumped the slot generation.
    EXPECT_FALSE(bank.live(r1, g1));
    EXPECT_TRUE(bank.live(r2, bank.genOf(r2)));
    EXPECT_NE(bank.genOf(r2), g1);
}

TEST(Scheduler, WakeupSelectMatchesOldestFirstOnRandomizedSchedules)
{
    // Drive a bank via latched ready bits through randomized
    // insert/ready/squash traffic and require its issue stream every
    // cycle to equal an oldest-first reference pick. Traffic stays
    // inside one ROB window: a lagging head (the oldest unretired seq)
    // bounds the youngest seq, and runs last long enough to wrap the
    // slot space.
    std::mt19937_64 rng(7);
    for (unsigned trial = 0; trial < 50; ++trial) {
        const unsigned entries = 1 + static_cast<unsigned>(rng() % 32);
        const unsigned width = 1 + static_cast<unsigned>(rng() % 3);
        const unsigned rob = 2 * entries + static_cast<unsigned>(rng() % 64);
        SchedulerBank wake(2, entries, width, rob);
        std::uint64_t next_seq = 1;
        std::uint64_t head = 1;
        // seq -> (readyFrom cycle, scheduler); slot refs.
        std::map<std::uint64_t, Cycle> ready_from;
        std::map<std::uint64_t, unsigned> sched_of;
        std::map<std::uint64_t, SchedulerBank::SlotRef> refs;
        std::set<std::uint64_t> live;

        for (Cycle t = 0; t < 200; ++t) {
            // Retire lazily: the head may trail the oldest live entry.
            if (rng() % 2)
                head = live.empty() ? next_seq : *live.begin();
            // Random inserts.
            for (unsigned k = 0; k < rng() % 4; ++k) {
                const unsigned s = static_cast<unsigned>(rng() % 2);
                if (!wake.hasSpace(s) || next_seq >= head + rob)
                    continue;
                const std::uint64_t seq = next_seq++;
                const auto ref = wake.insert(s, seq);
                refs[seq] = ref;
                sched_of[seq] = s;
                ready_from[seq] = t + 1 + rng() % 6;
                live.insert(seq);
            }
            // Occasional squash.
            if (rng() % 10 == 0 && !live.empty()) {
                auto it = live.begin();
                std::advance(it, rng() % live.size());
                const std::uint64_t cut = *it;
                wake.squashAfter(cut);
                for (auto l = live.upper_bound(cut); l != live.end();)
                    l = live.erase(l);
            }
            // Latch ready bits that became due this cycle.
            std::vector<std::uint64_t> expect;
            for (unsigned s : {0u, 1u}) {
                unsigned picked = 0;
                for (const std::uint64_t seq : live) {
                    if (ready_from[seq] > t || sched_of[seq] != s)
                        continue;
                    wake.setReady(refs[seq], true);
                    if (picked < width) {
                        expect.push_back(seq);
                        ++picked;
                    }
                }
            }
            std::vector<std::uint64_t> from_wake;
            wake.selectWakeup(
                head,
                [&from_wake](std::uint64_t seq, unsigned) {
                    from_wake.push_back(seq);
                    return true;
                },
                [](std::uint64_t, unsigned, SchedulerBank::SlotRef) {});
            ASSERT_EQ(from_wake, expect) << "trial " << trial
                                         << " cycle " << t;
            for (const std::uint64_t seq : from_wake)
                live.erase(seq);
            ASSERT_EQ(wake.occupancy(), live.size());
        }
        EXPECT_GT(next_seq, rob) << "trial " << trial
                                 << " never wrapped the slot space";
    }
}

// ------------------------------------- whole-machine statistic parity

std::vector<MachineConfig>
parityMachines(unsigned width)
{
    return {
        MachineConfig::make(MachineKind::Baseline, width),
        MachineConfig::make(MachineKind::RbLimited, width),
        MachineConfig::make(MachineKind::RbFull, width),
        MachineConfig::make(MachineKind::Ideal, width),
    };
}

TEST(WakeupParity, OracleAndPlainStatSnapshotsBitIdentical)
{
    // On every machine model, oracle mode (stepped every cycle, every
    // ready/hole/storeScan bit checked against its predicate) and a
    // plain idle-skipping run produce the same StatSnapshot, bit for
    // bit — same IPC, same hole-wait accounting, same LSQ search counts,
    // same everything registered. The stepped run also checks the idle
    // skip: a skipped cycle that was not idle shows up as a difference.
    WorkloadParams wp;
    for (const char *name : {"mcf", "compress", "vortex"}) {
        const Program prog = findWorkload(name).build(wp);
        for (unsigned width : {4u, 8u}) {
            for (MachineConfig cfg : parityMachines(width)) {
                cfg.wakeupOracle = false;
                const SimResult plain = simulate(cfg, prog);
                cfg.wakeupOracle = true;
                const SimResult checked = simulate(cfg, prog);
                ASSERT_TRUE(plain.halted);
                ASSERT_TRUE(checked.halted);
                EXPECT_TRUE(plain.stats == checked.stats)
                    << cfg.label << " x " << name << " w" << width
                    << ": plain ipc=" << plain.ipc()
                    << " oracle ipc=" << checked.ipc();
            }
        }
    }
}

TEST(WakeupParity, OracleModeCrossChecksEveryCycle)
{
    // Driven on the core directly, so the host telemetry is visible:
    // oracle mode checks entries and never skips a cycle, a plain run
    // of the same memory-bound program skips idle stretches, and both
    // simulate the same number of cycles.
    WorkloadParams wp;
    const Program prog = findWorkload("mcf").build(wp);
    MachineConfig checked_cfg =
        MachineConfig::make(MachineKind::RbLimited, 8);
    checked_cfg.wakeupOracle = true;
    OooCore checked(checked_cfg, prog);
    ASSERT_TRUE(checked.run(100'000'000));
    EXPECT_GT(checked.wakeupOracleChecks(), 0u);
    EXPECT_EQ(checked.idleSkippedCycles(), 0u);

    const MachineConfig plain_cfg =
        MachineConfig::make(MachineKind::RbLimited, 8);
    OooCore plain(plain_cfg, prog);
    ASSERT_TRUE(plain.run(100'000'000));
    EXPECT_EQ(plain.wakeupOracleChecks(), 0u);
    EXPECT_GT(plain.idleSkippedCycles(), 0u);
    EXPECT_EQ(plain.stats().cycles, checked.stats().cycles);
}

TEST(WakeupParity, MonolithicSchedulerRunsOnTheWakeupArray)
{
    // One 128-entry select-4 scheduler (ablation_partition's monolithic
    // window): its masks span the ROB's 128 slots in two words. It must
    // survive the per-cycle oracle check and match the plain run stat
    // for stat.
    WorkloadParams wp;
    const Program prog = findWorkload("compress").build(wp);
    MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 4);
    cfg.numSchedulers = 1;
    cfg.schedEntries = 128;
    cfg.selectWidth = 4;
    const SimResult plain = simulate(cfg, prog);
    ASSERT_TRUE(plain.halted);
    EXPECT_GT(plain.ipc(), 0.0);

    cfg.wakeupOracle = true;
    const SimResult oracle = simulate(cfg, prog);
    EXPECT_TRUE(oracle.halted);
    EXPECT_TRUE(oracle.stats == plain.stats)
        << "plain ipc=" << plain.ipc() << " oracle ipc=" << oracle.ipc();
}

TEST(WakeupParity, OneInstructionReadingAPendingRegisterTwice)
{
    // ADDQ r2, r2 -> r3 waits on one pending register through both
    // sources: r2's producer wakes it once, and it must still arm (a
    // count of pending sources against one waiter bit per register
    // would never reach zero and deadlock the run).
    CodeBuilder cb("same-source-twice");
    cb.dataWords(0x40000, {21});
    cb.ldiq(R(1), 0x40000);
    cb.load(Opcode::LDQ, R(2), 0, R(1)); // cold miss: r2 pending long
    cb.op3(Opcode::ADDQ, R(2), R(2), R(3));
    cb.op3(Opcode::MULQ, R(3), R(3), R(4));
    cb.store(Opcode::STQ, R(4), 8, R(1));
    cb.halt();
    const Program prog = cb.finish();
    for (MachineConfig cfg : parityMachines(4)) {
        const SimResult plain = simulate(cfg, prog);
        cfg.wakeupOracle = true;
        const SimResult checked = simulate(cfg, prog);
        ASSERT_TRUE(plain.halted) << cfg.label;
        ASSERT_TRUE(checked.halted) << cfg.label;
        EXPECT_TRUE(plain.stats == checked.stats) << cfg.label;
    }
}

// ------------------------------------------------- deadlock watchdog

TEST(Watchdog, AbortsRunsWithoutRetirementProgress)
{
    // A watchdog window shorter than the memory latency trips on the
    // very first missing load: run() must return false (not assert, not
    // spin) and count the abort in a registered statistic.
    CodeBuilder cb("watchdog");
    cb.dataWords(0x40000, {123});
    cb.ldiq(R(1), 0x40000);
    // Cold miss: ~memLatency cycles with no retirement progress.
    cb.load(Opcode::LDQ, R(2), 0, R(1));
    cb.opi(Opcode::ADDQ, R(2), 1, R(3));
    cb.halt();
    const Program prog = cb.finish();

    MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 4);
    cfg.deadlockCycles = 40;
    cfg.memLatency = 400;
    // The plain run skips idle cycles straight into the watchdog
    // window; oracle mode steps there, and both must abort alike.
    for (bool oracle : {false, true}) {
        cfg.wakeupOracle = oracle;
        const SimResult r = simulate(cfg, prog);
        EXPECT_FALSE(r.halted) << (oracle ? "oracle" : "plain");
        EXPECT_EQ(r.counter("core.deadlockAborts"), 1u);
    }
    // A sane window lets the same program finish.
    cfg.deadlockCycles = 100000;
    cfg.wakeupOracle = false;
    const SimResult ok = simulate(cfg, prog);
    EXPECT_TRUE(ok.halted);
    EXPECT_EQ(ok.counter("core.deadlockAborts"), 0u);
}

} // namespace
} // namespace rbsim
