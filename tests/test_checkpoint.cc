/**
 * @file
 * Architectural checkpoints (src/sim/checkpoint.hh) and the functional
 * fast-forward engine that captures them (src/sim/fastfwd.hh):
 *  - MemImage copy-on-write page sharing: snapshots stay intact under
 *    writes on either side, restores re-share, and runs that store into
 *    a program's initialized data never write its image;
 *  - serialize() is stable, fingerprint() identifies content, and a
 *    vortex capture's bytes are pinned;
 *  - a checkpoint captured mid-program resumes on a fresh core and runs
 *    to completion under cosim lockstep — bit-exactness against the
 *    reference model on every retired instruction — across the Figure 12
 *    machine grid, plain and in wakeup-oracle mode;
 *  - a resumed window measured after a detailed warm-up leg reports
 *    the pinned statistics of the same window;
 *  - Simulator::checkpoint() captures a detailed run stopped mid-flight
 *    (occupied ROB/LSQ, possibly wrapped) and the chain keeps absolute
 *    dynamic-stream positions;
 *  - the program a warm Simulator is bound to, and the hash its
 *    checkpoints carry, follow content, never name or address;
 *  - a checkpoint of another program, of a halted program, or of a
 *    machine of another cache geometry is rejected with an exception,
 *    and the simulator that rejected it still resumes a fitting one.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "common/json.hh"
#include "func/interp.hh"
#include "isa/builder.hh"
#include "sim/checkpoint.hh"
#include "sim/fastfwd.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace rbsim
{
namespace
{

Program
testProgram(const char *workload = "compress")
{
    WorkloadParams wp;
    return findWorkload(workload).build(wp);
}

/** The Figure 12 machines (4-wide) with the scheduler mode applied. */
std::vector<MachineConfig>
fig12Grid(bool oracle)
{
    std::vector<MachineConfig> grid;
    for (MachineKind kind :
         {MachineKind::Baseline, MachineKind::RbLimited,
          MachineKind::RbFull, MachineKind::Ideal}) {
        MachineConfig cfg = MachineConfig::make(kind, 4);
        cfg.wakeupOracle = oracle;
        grid.push_back(cfg);
    }
    return grid;
}

// --------------------------------------------------- CoW page sharing

TEST(MemImageCow, SnapshotSurvivesWritesOnEitherSide)
{
    MemImage img;
    img.write64(0x1000, 0x1111);
    img.write64(0x2000, 0x2222);

    const PageMap snap = img.snapshotPages();

    // A write to the live image must not leak into the snapshot...
    img.write64(0x1000, 0xdead);
    EXPECT_EQ(img.read64(0x1000), 0xdeadu);

    MemImage restored;
    restored.restorePages(snap);
    EXPECT_EQ(restored.read64(0x1000), 0x1111u);
    EXPECT_EQ(restored.read64(0x2000), 0x2222u);

    // ...and a write after a restore must not corrupt the snapshot for
    // the NEXT restore (checkpoints are reused across windows).
    restored.write64(0x2000, 0xbeef);
    MemImage again;
    again.restorePages(snap);
    EXPECT_EQ(again.read64(0x2000), 0x2222u);
}

TEST(MemImageCow, RunsNeverWriteTheProgramImage)
{
    // Every run's memory starts by sharing the program's pages. A loop
    // that doubles each word of its own initialized data (two pages)
    // must leave them as built, so a second run — warm or fresh — and
    // a fast-forward see the same start.
    const Addr base = 0x30000;
    constexpr Word words = 1024;
    std::vector<Word> init;
    for (Word i = 0; i < words; ++i)
        init.push_back(3 * i + 1);
    CodeBuilder cb("self-store");
    cb.dataWords(base, init);
    cb.ldiq(R(1), base);
    cb.ldiq(R(2), words);
    const Label loop = cb.newLabel();
    cb.bind(loop);
    cb.load(Opcode::LDQ, R(3), 0, R(1));
    cb.op3(Opcode::ADDQ, R(3), R(3), R(3));
    cb.store(Opcode::STQ, R(3), 0, R(1));
    cb.lda(R(1), 8, R(1));
    cb.opi(Opcode::SUBQ, R(2), 1, R(2));
    cb.branch(Opcode::BNE, R(2), loop);
    cb.halt();
    const Program prog = cb.finish();
    std::map<Addr, Page> built;
    for (const auto &[page_no, page] : prog.image)
        built[page_no] = *page;
    ASSERT_EQ(built.size(), 2u);

    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);
    Simulator sim(cfg);
    const SimResult first = sim.run(prog, SimOptions{});
    ASSERT_TRUE(first.halted);
    EXPECT_EQ(sim.run(prog, SimOptions{}).stats, first.stats);
    EXPECT_EQ(simulate(cfg, prog).stats, first.stats);

    FastForward ff(cfg, prog);
    ff.run(1u << 20);
    ASSERT_TRUE(ff.halted());
    EXPECT_EQ(ff.ref().mem().read64(base + 8 * 5), 2 * (3 * 5 + 1));

    ASSERT_EQ(prog.image.size(), built.size());
    for (const auto &[page_no, page] : prog.image)
        EXPECT_EQ(*page, built.at(page_no)) << "page " << page_no;
}

// ----------------------------------------------------- serialized form

ArchCheckpoint
captureAt(const MachineConfig &cfg, const Program &prog,
          std::uint64_t insts)
{
    FastForward ff(cfg, prog);
    ff.run(insts);
    ArchCheckpoint ck;
    ff.capture(ck);
    return ck;
}

TEST(CheckpointSerialize, SerializeIsStable)
{
    const Program prog = testProgram();
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);
    const ArchCheckpoint ck = captureAt(cfg, prog, 5000);
    EXPECT_EQ(ck.progHash, prog.hash());
    EXPECT_EQ(ck.instsExecuted, 5000u);

    // A copy shares the captured pages and serializes to the same bytes.
    const ArchCheckpoint copy = ck;
    EXPECT_EQ(copy.serialize(), ck.serialize());
    EXPECT_EQ(copy.fingerprint(), ck.fingerprint());
}

TEST(CheckpointSerialize, FingerprintIdentifiesContent)
{
    const Program prog = testProgram();
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);
    const ArchCheckpoint a = captureAt(cfg, prog, 5000);
    const ArchCheckpoint b = captureAt(cfg, prog, 5000);
    const ArchCheckpoint c = captureAt(cfg, prog, 6000);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_NE(a.fingerprint(), c.fingerprint());

    // The fingerprint streams the serializer's bytes into FNV-1a without
    // building them; it must equal the hash of the image itself.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char byte : c.serialize()) {
        h ^= byte;
        h *= 0x100000001b3ull;
    }
    EXPECT_EQ(c.fingerprint(), h ? h : 1);
}

TEST(CheckpointSerialize, VortexCaptureBytesArePinned)
{
    // The captured memory is the program's image plus the run's writes,
    // however the image is held: these values were recorded when a run
    // rebuilt the image byte by byte from a data-segment list.
    const Program prog = testProgram("vortex");
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);
    const ArchCheckpoint ck = captureAt(cfg, prog, 10'000);
    EXPECT_EQ(ck.pages.size(), 82u);
    EXPECT_EQ(ck.serialize().size(), 872'725u);
    EXPECT_EQ(ck.fingerprint(), 0x31c0f922d81733a9ull);
}

// ----------------------------------------- fast-forward engine basics

TEST(FastForwardEngine, TracksTheReferenceInterpreter)
{
    const Program prog = testProgram();
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);

    FastForward ff(cfg, prog);
    Interp plain(prog);
    ff.run(3000);
    plain.run(3000);

    EXPECT_EQ(ff.instsExecuted(), 3000u);
    EXPECT_EQ(ff.ref().pc(), plain.pc());
    for (unsigned r = 0; r < numArchRegs; ++r)
        EXPECT_EQ(ff.ref().reg(r), plain.reg(r)) << "r" << r;
}

TEST(FastForwardEngine, CaptureAfterHaltThrows)
{
    const Program prog = testProgram();
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);
    FastForward ff(cfg, prog);
    while (!ff.halted())
        ff.run(1u << 20);
    ArchCheckpoint ck;
    EXPECT_THROW(ff.capture(ck), std::logic_error);
}

// ------------------------------------- resume under lockstep cosim

/**
 * The acceptance check: a checkpoint captured mid-program must resume
 * on a fresh core and run to HALT with co-simulation verifying every
 * retired register write, memory write, and control transfer against
 * the reference model — on every Figure 12 machine, plain and with the
 * per-cycle wakeup oracle.
 */
void
expectResumeLockstep(bool oracle)
{
    const Program prog = testProgram();
    for (const MachineConfig &cfg : fig12Grid(oracle)) {
        auto ck = std::make_shared<ArchCheckpoint>(
            captureAt(cfg, prog, 4000));
        SimOptions opts;
        opts.startFrom = ck;
        opts.cosim = true;
        const SimResult res = simulate(cfg, prog, opts); // throws on
                                                         // divergence
        EXPECT_TRUE(res.halted)
            << cfg.label << (oracle ? " (oracle)" : " (plain)");
        EXPECT_GT(res.counter("cosim.checked"), 0u) << cfg.label;
    }
}

TEST(CheckpointResume, Fig12GridWakeupLockstep)
{
    expectResumeLockstep(false);
}

TEST(CheckpointResume, Fig12GridOracleLockstep)
{
    expectResumeLockstep(true);
}

TEST(CheckpointResume, WrongProgramAndHaltedCheckpointsAreRejected)
{
    const Program prog = testProgram();
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);
    auto ck =
        std::make_shared<ArchCheckpoint>(captureAt(cfg, prog, 1000));

    const Program other = testProgram("go");
    SimOptions opts;
    opts.startFrom = ck;
    EXPECT_THROW(simulate(cfg, other, opts), std::invalid_argument);

    auto halted = std::make_shared<ArchCheckpoint>(*ck);
    halted->pc = prog.code.size(); // the run-off-the-end halt state
    opts.startFrom = halted;
    EXPECT_THROW(simulate(cfg, prog, opts), std::logic_error);

    // The same checks on a warm simulator already bound to `prog`: it
    // keeps its binding for equal content only, so `other` is still
    // rejected — and `prog` then resumes.
    Simulator sim(cfg);
    SimOptions whole;
    whole.maxInsts = 500;
    sim.run(prog, whole);
    opts.startFrom = ck;
    EXPECT_THROW(sim.run(other, opts), std::invalid_argument);
    opts.startFrom = halted;
    EXPECT_THROW(sim.run(prog, opts), std::logic_error);
    opts.startFrom = ck;
    const SimResult resumed = sim.run(prog, opts);
    EXPECT_TRUE(resumed.halted);
    EXPECT_EQ(resumed.stats, simulate(cfg, prog, opts).stats);

    // A checkpoint of a machine with another DL1 geometry cannot be
    // installed: its tag array has another shape. The detailed resume
    // refuses it with an exception and then still takes a checkpoint
    // that fits.
    MachineConfig bigDl1 = cfg;
    bigDl1.dl1.sizeBytes *= 2;
    auto foreign = std::make_shared<ArchCheckpoint>(
        captureAt(bigDl1, prog, 1000));
    ASSERT_EQ(foreign->progHash, ck->progHash);
    ASSERT_NE(foreign->dl1.array.size(), ck->dl1.array.size());
    opts.startFrom = foreign;
    EXPECT_THROW(simulate(cfg, prog, opts), std::invalid_argument);
    EXPECT_THROW(sim.run(prog, opts), std::invalid_argument);
    ArchCheckpoint none;
    EXPECT_THROW(sim.checkpoint(none), std::logic_error);
    opts.startFrom = ck;
    EXPECT_EQ(sim.run(prog, opts).stats, resumed.stats);
}

TEST(CheckpointResume, WarmupWindowStatsArePinned)
{
    // A sampling window: resume gcc at instruction 20,000, warm the
    // pipeline for 2,000 instructions, measure 10,000. Recorded when
    // the warm-up leg ended by zeroing every counter in place; the
    // window is now its end snapshot since the warm-up's, and every
    // counter, bucket and derived ratio must come out the same.
    const Program prog = testProgram("gcc");
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::RbLimited, 4);
    SimOptions opts;
    opts.startFrom =
        std::make_shared<ArchCheckpoint>(captureAt(cfg, prog, 20'000));
    opts.warmupInsts = 2'000;
    opts.maxInsts = 10'000;
    const SimResult r = simulate(cfg, prog, opts);
    EXPECT_FALSE(r.halted);
    EXPECT_TRUE(r.instLimited);
    EXPECT_EQ(r.stats.toJson().dump(),
        "{\"counters\":{\"bpred.gshareChosen\":21169,"
        "\"bpred.localChosen\":3779,\"bpred.lookups\":24948,"
        "\"core.condBranches\":3871,\"core.condMispredicts\":482,"
        "\"core.cycles\":18953,\"core.deadlockAborts\":0,"
        "\"core.dispatched\":44212,\"core.fetched\":65579,"
        "\"core.flushes\":770,\"core.holeWaitCycles\":4820,"
        "\"core.issueWaitSum\":108823,\"core.issued\":23871,"
        "\"core.jmpFetchStalls\":0,\"core.loadForwards\":0,"
        "\"core.loads\":2543,\"core.rbBogusCorrections\":0,"
        "\"core.rbPathExecs\":8207,\"core.retired\":10000,"
        "\"core.squashed\":55495,\"core.stores\":0,"
        "\"core.withAnySource\":8787,\"core.withBypassedSource\":6956,"
        "\"cosim.checked\":10000,\"dl1.accesses\":6268,\"dl1.misses\":484,"
        "\"fetch.icacheStallCycles\":0,\"il1.accesses\":17970,"
        "\"il1.misses\":0,\"l2.accesses\":484,\"l2.misses\":197,"
        "\"lsq.forwards\":0,\"lsq.inserted\":11369,\"lsq.searches\":12536,"
        "\"mem.accesses\":197},"
        "\"formulas\":{\"core.branchAccuracy\":0.87548437096357534,"
        "\"core.ipc\":0.52762095710441614,"
        "\"core.issueWaitMean\":10.882300000000001,"
        "\"dl1.missRate\":0.077217613273771538,\"il1.missRate\":0,"
        "\"l2.missRate\":0.40702479338842973},"
        "\"vectors\":{\"bypass.case\":[461,3782,2713,0],"
        "\"bypass.slot\":[6921,0,35,817,48,21,1,828],"
        "\"core.fetchSlots\":[1868,0,0,8117,7401,292,0,36,1239,0,0,0,0,0,0,0,"
        "0],\"core.holeWait\":[9105,299,473,123,0,0,0,0,0,0,0,0,0,0,0,0],"
        "\"core.issueWait\":[1993,457,446,719,380,529,744,364,233,410,636,"
        "470,241,233,339,1806],\"core.retireSlots\":[15653,1477,438,332,84,"
        "285,173,236,275,0,0,0,0,0,0,0,0],\"core.table1\":[1562,0,231,2543,0,"
        "0,3871,1793]}}");
}

TEST(CheckpointResume, WarmSimulatorBindsByContentNotByName)
{
    // A' is A with one data byte changed: same name, same code, and the
    // same Program object. A warm simulator that kept A's binding
    // because the name or the address matched would run A's image and
    // capture A's hash.
    Program prog = testProgram();
    ASSERT_FALSE(prog.image.empty());
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);

    SimOptions opts;
    opts.maxInsts = 20'000;
    Simulator warm(cfg);
    warm.run(prog, opts);

    // The write replaces the page, so the warm simulator's bound copy
    // still holds the old one.
    const auto &[page_no, page] = *pagesInOrder(prog.image).front();
    const Addr addr = (page_no << pageShift) + pageSize / 2;
    const auto flipped =
        static_cast<std::uint8_t>((*page)[pageSize / 2] ^ 0x5a);
    prog.addDataBytes(addr, {flipped});
    const SimResult again = warm.run(prog, opts);
    ASSERT_TRUE(again.instLimited);
    Simulator fresh(cfg);
    EXPECT_EQ(again.stats, fresh.run(prog, opts).stats);

    // The stop point is a checkpoint: registers, memory and the bound
    // hash must all be A''s, and it resumes the same on both.
    ArchCheckpoint fromWarm;
    ArchCheckpoint fromFresh;
    warm.checkpoint(fromWarm);
    fresh.checkpoint(fromFresh);
    EXPECT_EQ(fromWarm.progHash, prog.hash());
    EXPECT_EQ(fromWarm.serialize(), fromFresh.serialize());
    SimOptions resume;
    resume.startFrom = std::make_shared<ArchCheckpoint>(fromWarm);
    EXPECT_EQ(warm.run(prog, resume).stats,
              simulate(cfg, prog, resume).stats);
}

// ------------------------------- mid-flight detailed-run checkpoints

TEST(CheckpointResume, MidFlightDetailedCaptureResumesExactly)
{
    // Stop a detailed run on an instruction budget: the ROB and LSQ are
    // occupied (and with a budget past robEntries, the ROB has wrapped),
    // yet the retired architectural state the cosim reference holds is a
    // complete checkpoint — in-flight work is simply not architectural.
    const Program prog = testProgram();
    MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);
    ASSERT_GT(6000u, cfg.robEntries);

    Simulator sim(cfg);
    SimOptions opts;
    opts.maxInsts = 6000;
    const SimResult stopped = sim.run(prog, opts);
    ASSERT_FALSE(stopped.halted);
    ASSERT_TRUE(stopped.instLimited);

    ArchCheckpoint ck;
    sim.checkpoint(ck);
    EXPECT_EQ(ck.instsExecuted, 6000u);

    // The capture equals the functional model's view of the same point.
    const ArchCheckpoint ffView = captureAt(cfg, prog, 6000);
    EXPECT_EQ(ck.pc, ffView.pc);
    EXPECT_EQ(ck.regs, ffView.regs);

    // And it resumes to completion under lockstep verification.
    SimOptions resume;
    resume.startFrom = std::make_shared<ArchCheckpoint>(ck);
    const SimResult done = simulate(cfg, prog, resume);
    EXPECT_TRUE(done.halted);
}

TEST(CheckpointResume, ChainedCheckpointsKeepAbsolutePositions)
{
    const Program prog = testProgram();
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);

    Simulator sim(cfg);
    SimOptions opts;
    opts.maxInsts = 2000;
    ASSERT_FALSE(sim.run(prog, opts).halted);
    ArchCheckpoint first;
    sim.checkpoint(first);
    EXPECT_EQ(first.instsExecuted, 2000u);

    // Resume from the first and stop again: the second checkpoint's
    // stream position must be absolute, not window-relative.
    SimOptions opts2;
    opts2.startFrom = std::make_shared<ArchCheckpoint>(first);
    opts2.maxInsts = 1500;
    ASSERT_FALSE(sim.run(prog, opts2).halted);
    ArchCheckpoint second;
    sim.checkpoint(second);
    EXPECT_EQ(second.instsExecuted, 3500u);

    // The architectural half must match a straight-line capture at the
    // same absolute position. (The warm half legitimately differs: the
    // detailed core trains predictors and caches through speculation,
    // the functional fast-forward in program order.)
    const ArchCheckpoint ref = captureAt(cfg, prog, 3500);
    EXPECT_EQ(second.pc, ref.pc);
    EXPECT_EQ(second.regs, ref.regs);
    ASSERT_EQ(second.pages.size(), ref.pages.size());
    for (const auto &[page, data] : ref.pages) {
        const auto it = second.pages.find(page);
        ASSERT_NE(it, second.pages.end());
        EXPECT_EQ(*it->second, *data);
    }
}

TEST(CheckpointResume, CheckpointRequiresCosimAndAMidFlightStop)
{
    const Program prog = testProgram();
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 4);
    Simulator sim(cfg);
    ArchCheckpoint ck;

    SimOptions noCosim;
    noCosim.cosim = false;
    noCosim.maxInsts = 1000;
    sim.run(prog, noCosim);
    EXPECT_THROW(sim.checkpoint(ck), std::logic_error);

    ASSERT_TRUE(sim.run(prog).halted);
    EXPECT_THROW(sim.checkpoint(ck), std::logic_error);
}

} // namespace
} // namespace rbsim
