/**
 * @file
 * Integration tests for the out-of-order core: every machine model runs
 * real programs to completion under lockstep co-simulation, and the
 * relative timing of the four machines matches the paper's reasoning
 * (dependent chains: Ideal < RB < Baseline latency; independent ops:
 * equal bandwidth). Each OooCore::run call counts its budgets from its
 * own start.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace rbsim
{
namespace
{

const std::vector<MachineKind> allKinds = {
    MachineKind::Baseline, MachineKind::RbLimited, MachineKind::RbFull,
    MachineKind::Ideal};

/** A long serial chain of dependent adds. */
Program
dependentAddChain(unsigned iters)
{
    CodeBuilder cb("dep-chain");
    cb.ldiq(R(1), 0);
    cb.ldiq(R(2), iters);
    const Label loop = cb.newLabel();
    cb.bind(loop);
    // 8 dependent adds per iteration.
    for (int i = 0; i < 8; ++i)
        cb.opi(Opcode::ADDQ, R(1), 3, R(1));
    cb.opi(Opcode::SUBQ, R(2), 1, R(2));
    cb.branch(Opcode::BNE, R(2), loop);
    cb.halt();
    return cb.finish();
}

/** Independent add streams (high ILP: 16 chains covers latency 2). */
Program
independentAdds(unsigned iters)
{
    CodeBuilder cb("indep");
    for (unsigned r = 1; r <= 16; ++r)
        cb.ldiq(R(r), r);
    cb.ldiq(R(17), iters);
    const Label loop = cb.newLabel();
    cb.bind(loop);
    for (unsigned r = 1; r <= 16; ++r)
        cb.opi(Opcode::ADDQ, R(r), 1, R(r));
    cb.opi(Opcode::SUBQ, R(17), 1, R(17));
    cb.branch(Opcode::BNE, R(17), loop);
    cb.halt();
    return cb.finish();
}

/**
 * Steady-state cycles per loop iteration: difference between a long and a
 * short run divided by the iteration delta. Removes cold-cache and
 * predictor-warmup constants.
 */
double
marginalCyclesPerIter(const MachineConfig &cfg,
                      Program (*make)(unsigned), unsigned lo, unsigned hi)
{
    const SimResult a = simulate(cfg, make(lo));
    const SimResult b = simulate(cfg, make(hi));
    return double(b.counter("core.cycles") - a.counter("core.cycles")) / double(hi - lo);
}

/** Mixed program exercising memory, branches, cmov, and logic. */
Program
mixedKernel()
{
    return assemble(R"(
        .name mixed
        .org 0x20000
        .quad 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
            ldiq r1, 0x20000
            ldiq r2, 16
            ldiq r3, 0          ; sum
            ldiq r4, 0          ; max
            ldiq r10, 0         ; xor-hash
        loop:
            ldq r5, 0(r1)
            addq r3, r5, r3
            cmplt r4, r5, r6
            cmovne r6, r5, r4
            xor r10, r5, r10
            sll r10, #1, r11
            srl r10, #63, r12
            bis r11, r12, r10   ; rotate left 1
            lda r1, 8(r1)
            subq r2, #1, r2
            bne r2, loop
            stq r3, 0(r1)
            stq r4, 8(r1)
            stq r10, 16(r1)
            halt
    )");
}

TEST(Core, AllMachinesRunMixedKernelWithCosim)
{
    const Program p = mixedKernel();
    for (MachineKind kind : allKinds) {
        for (unsigned width : {4u, 8u}) {
            const MachineConfig cfg = MachineConfig::make(kind, width);
            const SimResult r = simulate(cfg, p);
            EXPECT_TRUE(r.halted) << cfg.label << " w=" << width;
            EXPECT_GT(r.counter("cosim.checked"), 100u);
            EXPECT_EQ(r.counter("cosim.checked"), r.counter("core.retired"));
            // Architectural results (from committed memory, via the
            // reference which checked them): sum of digits of pi = 80.
        }
    }
}

TEST(Core, CommittedMemoryMatchesReference)
{
    const Program p = mixedKernel();
    const MachineConfig cfg = MachineConfig::make(MachineKind::RbFull, 8);
    OooCore core(cfg, p);
    ASSERT_TRUE(core.run(1'000'000));
    // 0x20000 + 16*8 = 0x20080: sum, max, hash.
    EXPECT_EQ(core.committedMem().read64(0x20080), 80u);
    EXPECT_EQ(core.committedMem().read64(0x20088), 9u);
}

TEST(Core, DependentChainLatencyOrdering)
{
    // On serial dependence chains the add latency is fully exposed:
    // Ideal (1-cycle) < RB (1-cycle + conversions off the critical path)
    // <= Baseline (2-cycle). RB-limited == RB-full here because
    // back-to-back BYP-1 forwarding is all the chain needs.
    double cyc[4];
    int i = 0;
    for (MachineKind kind : allKinds) {
        const MachineConfig cfg = MachineConfig::make(kind, 8);
        cyc[i++] = marginalCyclesPerIter(cfg, dependentAddChain, 300,
                                         1300);
    }
    const double base = cyc[0], rblim = cyc[1], rbfull = cyc[2],
                 ideal = cyc[3];
    // 9 chained adds/iteration: ~10.5 cycles on 1-cycle adders (cluster
    // crossings included), ~18.5 on 2-cycle adders.
    EXPECT_LT(ideal, base * 0.66); // 1-cycle vs 2-cycle chain
    EXPECT_LT(rbfull, base * 0.66);
    EXPECT_LE(ideal, rbfull + 0.01);
    EXPECT_NEAR(rblim, rbfull, rbfull * 0.05);
}

TEST(Core, IndependentOpsBandwidthBound)
{
    // With ample ILP all four machines provide the same bandwidth; IPC
    // differences shrink (paper's throughput-vs-latency point).
    double cpi_min = 1e9, cpi_max = 0;
    for (MachineKind kind : allKinds) {
        const MachineConfig cfg = MachineConfig::make(kind, 8);
        const double c =
            marginalCyclesPerIter(cfg, independentAdds, 400, 1400);
        cpi_min = std::min(cpi_min, c);
        cpi_max = std::max(cpi_max, c);
    }
    // 18 instructions per iteration, ample ILP: all machines sustain
    // several IPC and land close together.
    EXPECT_LT(cpi_max, 18.0 / 3.0);
    EXPECT_LT(cpi_max / cpi_min, 1.35);
}

TEST(Core, WiderMachineHelpsIndependentWork)
{
    const double c4 = marginalCyclesPerIter(
        MachineConfig::make(MachineKind::Ideal, 4), independentAdds, 400,
        1400);
    const double c8 = marginalCyclesPerIter(
        MachineConfig::make(MachineKind::Ideal, 8), independentAdds, 400,
        1400);
    EXPECT_LT(c8, c4 * 0.77);
}

TEST(Core, MispredictionRecoveryIsArchitecturallyClean)
{
    // Data-dependent branches on pseudo-random values: heavy
    // misprediction, co-simulation proves recovery correctness.
    CodeBuilder cb("branchy");
    cb.ldiq(R(1), 0x123456789abcdefull); // lcg state
    cb.ldiq(R(2), 2000);                 // iterations
    cb.ldiq(R(3), 0);                    // count
    cb.ldiq(R(6), 6364136223846793005ll);
    cb.ldiq(R(7), 1442695040888963407ll);
    const Label loop = cb.newLabel();
    const Label skip = cb.newLabel();
    cb.bind(loop);
    cb.op3(Opcode::MULQ, R(1), R(6), R(1));
    cb.op3(Opcode::ADDQ, R(1), R(7), R(1));
    cb.opi(Opcode::SRL, R(1), 13, R(4));
    cb.opi(Opcode::AND, R(4), 1, R(5));
    cb.branch(Opcode::BEQ, R(5), skip);
    cb.opi(Opcode::ADDQ, R(3), 1, R(3));
    cb.bind(skip);
    cb.opi(Opcode::SUBQ, R(2), 1, R(2));
    cb.branch(Opcode::BNE, R(2), loop);
    cb.halt();
    const Program p = cb.finish();

    for (MachineKind kind : allKinds) {
        const MachineConfig cfg = MachineConfig::make(kind, 8);
        const SimResult r = simulate(cfg, p);
        EXPECT_TRUE(r.halted) << cfg.label;
        EXPECT_GT(r.counter("core.condMispredicts"), 100u) << cfg.label;
        EXPECT_GT(r.counter("core.squashed"), 1000u);
    }
}

TEST(Core, StoreToLoadForwardingHappens)
{
    const Program p = assemble(R"(
            ldiq r1, 0x20000
            ldiq r2, 500
            ldiq r3, 7
        loop:
            stq r3, 0(r1)
            ldq r4, 0(r1)     ; same address: forward
            addq r4, r3, r3
            subq r2, #1, r2
            bne r2, loop
            halt
    )");
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 8);
    const SimResult r = simulate(cfg, p);
    EXPECT_TRUE(r.halted);
    EXPECT_GT(r.counter("core.loadForwards"), 100u);
}

TEST(Core, SubroutinesAndReturnPrediction)
{
    const Program p = assemble(R"(
        .entry main
        leaf:
            addq r1, r1, r1
            ret r26
        main:
            ldiq r1, 1
            ldiq r2, 300
        loop:
            bsr r26, leaf
            subq r2, #1, r2
            bne r2, loop
            halt
    )");
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 8);
    const SimResult r = simulate(cfg, p);
    EXPECT_TRUE(r.halted);
    // Returns predicted through the RAS: the only flushes allowed are
    // gshare warmup on the loop branch plus the exit misprediction.
    EXPECT_LT(r.counter("core.flushes"), 30u);
}

TEST(Core, JumpTableResolvesViaBtb)
{
    // A computed jump with a stable target: first encounter stalls fetch,
    // later ones hit the BTB.
    CodeBuilder cb("jtab");
    const Label loop = cb.newLabel();
    const Label target = cb.newLabel();
    const Label back = cb.newLabel();
    cb.ldiq(R(2), 200);
    cb.ldiq(R(8), 0);
    cb.bind(loop);
    cb.ldiq(R(4), 0); // patched below: target byte address
    cb.jmp(R(9), R(4));
    cb.bind(target);
    cb.opi(Opcode::ADDQ, R(8), 1, R(8));
    cb.bind(back);
    cb.opi(Opcode::SUBQ, R(2), 1, R(2));
    cb.branch(Opcode::BNE, R(2), loop);
    cb.halt();
    Program p = cb.finish();
    // Patch the LDIQ (3rd instruction, index 2... find it) to hold the
    // byte address of `target` (instruction index 4).
    for (Inst &inst : p.code) {
        if (inst.op == Opcode::LDIQ && inst.ra == 4)
            inst.imm64 = static_cast<std::int64_t>(p.byteAddrOf(4));
    }
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 8);
    const SimResult r = simulate(cfg, p);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.counter("core.retired"), r.counter("cosim.checked"));
    // After warmup the BTB predicts the jump; stalled resolutions stay
    // far below the 200 iterations.
    EXPECT_LT(r.counter("core.jmpFetchStalls"), 10u);
}

TEST(Core, RbMachinesExerciseRbDatapath)
{
    const Program p = mixedKernel();
    const SimResult rb =
        simulate(MachineConfig::make(MachineKind::RbFull, 8), p);
    EXPECT_GT(rb.counter("core.rbPathExecs"), rb.counter("core.retired") / 4);
    const SimResult ideal =
        simulate(MachineConfig::make(MachineKind::Ideal, 8), p);
    EXPECT_EQ(ideal.counter("core.rbPathExecs"), 0u);
}

TEST(Core, Table1TalliesArePlausible)
{
    const Program p = mixedKernel();
    const SimResult r =
        simulate(MachineConfig::make(MachineKind::Ideal, 8), p);
    std::uint64_t total = 0;
    for (std::uint64_t c : r.vec("core.table1"))
        total += c;
    EXPECT_EQ(total, r.counter("core.retired"));
    EXPECT_GT(r.vec("core.table1")[static_cast<unsigned>(Table1Row::MemAccess)],
              0u);
    EXPECT_GT(r.vec("core.table1")[static_cast<unsigned>(Table1Row::ArithRbRb)],
              0u);
}

TEST(Core, MinimumPipelineDepthRespected)
{
    // A single instruction plus HALT: the pipeline latency floor is 13
    // cycles (6 fetch/decode + 2 rename + 1 schedule + 2 RF + 1 EX + 1
    // retire).
    const Program p = assemble("addq r31, r31, r1\nhalt");
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 8);
    const SimResult r = simulate(cfg, p);
    EXPECT_TRUE(r.halted);
    // Cold caches: the very first fetch misses IL1 and L2 and pays the
    // ~110-cycle memory latency before the 13-stage minimum pipeline.
    EXPECT_GE(r.counter("core.cycles"), 13u);
    EXPECT_LT(r.counter("core.cycles"), 160u);
}

TEST(Core, SixteenWideExtensionRunsClean)
{
    // The width-scaling extension machine (4 clusters, scaled front
    // end): architecturally clean and faster than 8-wide on parallel
    // work.
    const Program p = independentAdds(400);
    const MachineConfig cfg16 =
        MachineConfig::make(MachineKind::RbFull, 16);
    EXPECT_EQ(cfg16.numClusters, 4u);
    const SimResult r16 = simulate(cfg16, p);
    EXPECT_TRUE(r16.halted);
    EXPECT_EQ(r16.counter("cosim.checked"), r16.counter("core.retired"));
    const SimResult r8 =
        simulate(MachineConfig::make(MachineKind::RbFull, 8), p);
    EXPECT_GT(r16.ipc(), r8.ipc());
}

TEST(Core, SimulationIsDeterministic)
{
    // Identical (config, program) pairs must produce identical cycle
    // counts and statistics: the simulator has no hidden global state.
    const Program p = mixedKernel();
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::RbLimited, 8);
    const SimResult a = simulate(cfg, p);
    const SimResult b = simulate(cfg, p);
    // The registry snapshot covers every registered statistic, so one
    // comparison pins the complete machine state accounting.
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.counter("core.cycles"), b.counter("core.cycles"));
}

TEST(Core, BackToBackRunsDoNotLeakAcrossCores)
{
    // A fresh core starts cold: caches, predictor, and banks are per
    // instance, so two sequential constructions behave identically.
    const Program p = mixedKernel();
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 4);
    OooCore c1(cfg, p);
    ASSERT_TRUE(c1.run(1'000'000));
    OooCore c2(cfg, p);
    ASSERT_TRUE(c2.run(1'000'000));
    EXPECT_EQ(c1.stats().cycles, c2.stats().cycles);
    EXPECT_EQ(c1.memoryHierarchy().dl1().misses,
              c2.memoryHierarchy().dl1().misses);
}

TEST(OooCore, RunBudgetsCountFromEachCall)
{
    // A measured window after a warm-up leg is a second run() on the
    // same core: it must retire its own max_insts within its own
    // max_cycles, and idle-skip up to the end of its own budget. The
    // second call starts with `now` already past its max_cycles.
    const Program prog = findWorkload("li").build(WorkloadParams{});
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::RbLimited, 4);
    OooCore core(cfg, prog);
    ASSERT_FALSE(core.run(1'000'000, 15'000));
    ASSERT_TRUE(core.instLimitHit());
    EXPECT_EQ(core.stats().retired, 15'000u);
    const Cycle first = core.stats().cycles;
    const Cycle skipped = core.idleSkippedCycles();

    constexpr Cycle budget = 20'000;
    ASSERT_GT(first, budget);
    ASSERT_FALSE(core.run(budget, 5'000));
    EXPECT_TRUE(core.instLimitHit());
    EXPECT_EQ(core.stats().retired, 20'000u);
    EXPECT_LT(core.stats().cycles - first, budget);
    EXPECT_GT(core.idleSkippedCycles(), skipped); // all past `budget`

    // The cycle budget runs out on its own count too.
    const Cycle before = core.stats().cycles;
    EXPECT_FALSE(core.run(100));
    EXPECT_FALSE(core.instLimitHit());
    EXPECT_EQ(core.stats().cycles, before + 100);

    // A budget past the cycle counter's range is no budget: it must not
    // wrap to a small one (served requests may carry any u64).
    const std::uint64_t retired = core.stats().retired;
    ASSERT_FALSE(core.run(neverCycle, 1'000));
    EXPECT_TRUE(core.instLimitHit());
    EXPECT_EQ(core.stats().retired, retired + 1'000);
}

} // namespace
} // namespace rbsim
