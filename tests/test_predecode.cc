/**
 * @file
 * Differential tests for the predecoded threaded-dispatch interpreter
 * (func/predecode.hh): every program the repo can produce — the
 * committed fuzz-repro corpus, all registered workloads, and every
 * workload-generator preset — is replayed in lockstep through the
 * predecoded `Interp::step()` and the reference `stepReference()`, and
 * the StepRecords must be bit-equal at every step. The record-free
 * `runFast()` path and a bare `execDecodedLoop` must land on the same
 * architectural state.
 */

#include <gtest/gtest.h>

#include "func/interp.hh"
#include "func/predecode.hh"
#include "fuzz/corpus.hh"
#include "isa/assembler.hh"
#include "workloads/gen/opstream.hh"
#include "workloads/workload.hh"

#ifndef RBSIM_CORPUS_DIR
#error "RBSIM_CORPUS_DIR must point at tests/corpus"
#endif

namespace rbsim
{
namespace
{

//! Per-program lockstep budget. Workload programs run a few hundred
//! thousand dynamic instructions; this window covers warmup, the steady
//! state, and (for the short programs) the halt path.
constexpr std::uint64_t lockstepSteps = 60'000;

/** Drive predecoded step() and stepReference() in lockstep and require
 * bit-equal StepRecords, then identical final architectural state —
 * also from a third interpreter running the record-free runFast path. */
void
expectLockstep(const Program &p, std::uint64_t max_steps = lockstepSteps)
{
    Interp pre(p);
    Interp ref(p);
    std::uint64_t n = 0;
    while (!pre.halted() && n < max_steps) {
        ASSERT_FALSE(ref.halted()) << "reference halted early at " << n;
        const StepRecord a = pre.step();
        const StepRecord b = ref.stepReference();
        ASSERT_EQ(a, b) << "diverged at step " << n << ", pc "
                        << b.pcIndex;
        ++n;
    }
    EXPECT_EQ(pre.halted(), ref.halted());
    EXPECT_EQ(pre.pc(), ref.pc());
    EXPECT_EQ(pre.instsExecuted(), ref.instsExecuted());
    for (unsigned r = 0; r < numArchRegs; ++r)
        ASSERT_EQ(pre.reg(r), ref.reg(r)) << "r" << r;

    Interp fast(p);
    EXPECT_EQ(fast.runFast(max_steps), n);
    EXPECT_EQ(fast.halted(), ref.halted());
    EXPECT_EQ(fast.pc(), ref.pc());
    for (unsigned r = 0; r < numArchRegs; ++r)
        ASSERT_EQ(fast.reg(r), ref.reg(r)) << "r" << r;
}

/** Run a program through execDecodedLoop directly, over a private
 * register file and memory image, and return the final architectural
 * registers + pc + halted + steps. */
struct LoopResult
{
    std::array<Word, numArchRegs> regs{};
    std::uint64_t pc = 0;
    std::uint64_t steps = 0;
    bool halted = false;
};

LoopResult
runLoop(const Program &p, std::uint64_t max_steps)
{
    const auto dp = decodeProgram(p);
    std::vector<Word> regs(dp->slotCount(), 0);
    for (std::size_t i = 0; i < dp->pool.size(); ++i)
        regs[numArchRegs + i] = dp->pool[i];
    MemImage mem;
    mem.restorePages(p.image);

    ExecCtx cx;
    cx.regs = regs.data();
    cx.mem = &mem;
    cx.dp = dp.get();
    cx.pc = p.entry;
    NullExecSink sink;
    execDecodedLoop(cx, max_steps, sink);

    LoopResult out;
    for (unsigned r = 0; r < numArchRegs; ++r)
        out.regs[r] = r == zeroReg ? 0 : regs[r];
    out.pc = cx.pc;
    out.steps = cx.steps;
    out.halted = cx.halted;
    return out;
}

// ---------------------------------------------------------------------
// Decode-level properties.

TEST(Predecode, CacheReturnsSameLoweringForEqualPrograms)
{
    const Program a = assemble("ldiq r1, 7\nhalt");
    const Program b = assemble("ldiq r1, 7\nhalt");
    ASSERT_EQ(a.hash(), b.hash());
    EXPECT_EQ(decodeProgram(a).get(), decodeProgram(b).get());
}

TEST(Predecode, LiteralPoolDeduplicatesAndScratchFollows)
{
    const Program p = assemble(R"(
            addq r1, #5, r2
            subq r3, #5, r4
            addq r5, #9, r6
            halt
    )");
    const auto dp = decodeProgram(p);
    EXPECT_EQ(dp->pool.size(), 2u); // 5 and 9, deduplicated
    EXPECT_EQ(dp->pool[0], 5u);
    EXPECT_EQ(dp->pool[1], 9u);
    EXPECT_EQ(dp->scratch, numArchRegs + 2);
    EXPECT_EQ(dp->slotCount(), std::size_t{numArchRegs} + 3);
}

TEST(Predecode, DeadDestOperateFoldsToNop)
{
    const Program p = assemble(R"(
            addq r1, r2, r31
            ldq r31, 0(r1)
            halt
    )");
    const auto dp = decodeProgram(p);
    EXPECT_EQ(dp->ops[0].h, Handler::Nop); // dead operate folds
    EXPECT_EQ(dp->ops[1].h, Handler::Ld8); // dead load still touches mem
}

// ---------------------------------------------------------------------
// Step-level edge cases the lockstep sweeps would only hit by luck.

TEST(Predecode, SingleStepRunOffEndHalts)
{
    const Program p = assemble("nop\nnop");
    Interp in(p);
    in.step();
    EXPECT_FALSE(in.halted());
    const StepRecord rec = in.step();
    EXPECT_EQ(rec.nextPc, 2u);
    EXPECT_TRUE(in.halted()); // off the code image, even at max_steps
    EXPECT_EQ(in.instsExecuted(), 2u);
}

TEST(Predecode, RunFastHonorsStepBudget)
{
    const Program p = assemble(R"(
            ldiq r1, 1000
        loop:
            subq r1, #1, r1
            bne r1, loop
            halt
    )");
    Interp in(p);
    EXPECT_EQ(in.runFast(5), 5u);
    EXPECT_FALSE(in.halted());
    EXPECT_EQ(in.instsExecuted(), 5u);
    in.runFast(1'000'000);
    EXPECT_TRUE(in.halted());

    Interp ref(p);
    while (!ref.halted())
        ref.stepReference();
    EXPECT_EQ(in.instsExecuted(), ref.instsExecuted());
    EXPECT_EQ(in.pc(), ref.pc());
}

TEST(Predecode, HaltLeavesPcOnItself)
{
    const Program p = assemble("nop\nhalt\nnop");
    Interp in(p);
    in.step();
    const StepRecord rec = in.step();
    EXPECT_TRUE(rec.halted);
    EXPECT_EQ(rec.nextPc, 1u);
    EXPECT_EQ(in.pc(), 1u);
    EXPECT_TRUE(in.halted());
}

// ---------------------------------------------------------------------
// The bare loop, outside any Interp, against the reference.

TEST(Predecode, ExecLoopAgreesWithReference)
{
    for (const char *preset : {"ycsb-a", "chase-dl1", "branch-0.50",
                               "rb-adversarial"}) {
        const Program p =
            gen::buildGenProgram(gen::genPreset(preset), WorkloadParams{});
        const LoopResult loop = runLoop(p, lockstepSteps);
        Interp ref(p);
        std::uint64_t n = 0;
        while (!ref.halted() && n < lockstepSteps) {
            ref.stepReference();
            ++n;
        }
        EXPECT_EQ(loop.pc, ref.pc()) << preset;
        EXPECT_EQ(loop.steps, ref.instsExecuted()) << preset;
        EXPECT_EQ(loop.halted, ref.halted()) << preset;
        for (unsigned r = 0; r < numArchRegs; ++r)
            ASSERT_EQ(loop.regs[r], ref.reg(r)) << preset << " r" << r;
    }
}

// ---------------------------------------------------------------------
// Lockstep sweeps: corpus, workloads, generator presets.

TEST(PredecodeParity, FuzzCorpus)
{
    const auto files = fuzz::listCorpus(RBSIM_CORPUS_DIR);
    ASSERT_GE(files.size(), 10u);
    unsigned programs = 0;
    for (const std::string &path : files) {
        const fuzz::ReproFile repro = fuzz::loadRepro(path);
        if (!repro.programLevel())
            continue; // value-level repro: no program to replay
        SCOPED_TRACE(path);
        expectLockstep(assemble(repro.asmText), 500'000);
        ++programs;
    }
    EXPECT_GE(programs, 5u) << "corpus lost its program-level repros";
}

class PredecodeWorkloadParity
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PredecodeWorkloadParity, Lockstep)
{
    const WorkloadInfo &w = findWorkload(GetParam());
    expectLockstep(w.build(WorkloadParams{}));
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadInfo &w : allWorkloads())
        names.push_back(w.name);
    return names;
}

std::string
sanitizeName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string s = info.param;
    for (char &c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return s;
}

INSTANTIATE_TEST_SUITE_P(All, PredecodeWorkloadParity,
                         ::testing::ValuesIn(workloadNames()),
                         sanitizeName);

class PredecodeGenParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PredecodeGenParity, Lockstep)
{
    const gen::GenConfig cfg = gen::genPreset(GetParam());
    expectLockstep(gen::buildGenProgram(cfg, WorkloadParams{}));
}

INSTANTIATE_TEST_SUITE_P(Presets, PredecodeGenParity,
                         ::testing::ValuesIn(gen::genPresetNames()),
                         sanitizeName);

} // namespace
} // namespace rbsim
