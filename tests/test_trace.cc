/**
 * @file
 * Tests for the O3PipeView pipeline tracer: the golden trace, stage
 * ordering, the ring buffer against the stream, and composition with
 * co-simulation.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "sim/simulator.hh"
#include "trace/tracer.hh"

namespace rbsim
{
namespace
{

/** ~20 static instructions covering the annotation surface: a bypassed
 * add chain, a multiply, store-to-load forwarding, and a data-dependent
 * branch that mispredicts (squash records). Fixed — the golden trace
 * below is committed. */
Program
goldenProgram()
{
    return assemble(R"(
        .name pipeview-golden
            ldiq r1, 5
            ldiq r2, 7
            ldiq r10, 0x40000
            ldiq r20, 6
        loop:
            addq r1, r2, r3
            mulq r3, r2, r4
            addq r4, #1, r1
            stq r3, 0(r10)
            ldq r5, 0(r10)
            addq r5, r1, r2
            subq r2, r3, r6
            blbs r6, skip
            addq r6, #2, r2
            cttz r2, r7
            addq r7, r1, r1
        skip:
            subq r20, #1, r20
            bne r20, loop
            stq r2, 8(r10)
            halt
    )");
}

constexpr MachineKind allMachines[] = {
    MachineKind::Baseline, MachineKind::RbLimited, MachineKind::RbFull,
    MachineKind::Ideal};

/** Stream-trace one simulate() run. */
std::string
traceRun(const MachineConfig &cfg, const Program &p)
{
    std::ostringstream os;
    trace::Tracer::Options topts;
    topts.stream = &os;
    trace::Tracer tracer(topts);
    SimOptions opts;
    opts.tracer = &tracer;
    const SimResult r = simulate(cfg, p, opts);
    EXPECT_TRUE(r.halted);
    return os.str();
}

TEST(PipeView, GoldenTrace)
{
    // The committed golden trace pins the full observable output of the
    // tracer — stage timestamps, emission order, bypass/hole/squash
    // annotations — for one RB-full run. Regenerate deliberately with
    //   RBSIM_REGEN_GOLDEN=1 ./build/tests/test_trace
    //       --gtest_filter=PipeView.GoldenTrace
    // and review the diff like any behavior change.
    const std::string golden_path =
        std::string(RBSIM_GOLDEN_DIR) + "/pipeview-golden.trace";
    const Program p = goldenProgram();
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::RbFull, 4);
    const std::string got = traceRun(cfg, p);
    ASSERT_FALSE(got.empty());

    if (std::getenv("RBSIM_REGEN_GOLDEN")) {
        std::ofstream out(golden_path, std::ios::binary);
        ASSERT_TRUE(out) << golden_path;
        out << got;
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << golden_path
                    << " (bootstrap with RBSIM_REGEN_GOLDEN=1)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str());
}

TEST(PipeView, StatSnapshotsBitIdenticalWithTracerAttached)
{
    // Tracing must be observation-only: a traced run and an untraced
    // run of the same program produce bit-identical statistics.
    const Program p = goldenProgram();
    for (const MachineKind kind : allMachines) {
        const MachineConfig cfg = MachineConfig::make(kind, 4);
        const SimResult plain = simulate(cfg, p);

        std::ostringstream os;
        trace::Tracer::Options topts;
        topts.stream = &os;
        topts.ringCap = 32;
        trace::Tracer tracer(topts);
        SimOptions opts;
        opts.tracer = &tracer;
        const SimResult traced = simulate(cfg, p, opts);

        EXPECT_TRUE(plain.stats == traced.stats) << cfg.label;
        EXPECT_FALSE(os.str().empty());
    }
}

TEST(PipeView, FormatIsO3PipeView)
{
    const Program p = goldenProgram();
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::RbFull, 4);
    const std::string text = traceRun(cfg, p);

    // Every line is an O3PipeView record; blocks are 7 lines from
    // fetch through retire, in fetch (trace-id) order.
    std::istringstream is(text);
    std::string line;
    std::vector<std::string> stages;
    unsigned blocks = 0;
    while (std::getline(is, line)) {
        ASSERT_EQ(line.rfind("O3PipeView:", 0), 0u) << line;
        stages.push_back(line.substr(11, line.find(':', 11) - 11));
        if (stages.back() == "retire") {
            ASSERT_EQ(stages.size(), 7u);
            EXPECT_EQ(stages[0], "fetch");
            EXPECT_EQ(stages[1], "decode");
            EXPECT_EQ(stages[2], "rename");
            EXPECT_EQ(stages[3], "dispatch");
            EXPECT_EQ(stages[4], "issue");
            EXPECT_EQ(stages[5], "complete");
            stages.clear();
            ++blocks;
        }
    }
    EXPECT_TRUE(stages.empty());
    EXPECT_GE(blocks, 20u);

    // Annotation surface: bypass levels, register-file reads, and the
    // mispredicting blbs's squash records all show up.
    EXPECT_NE(text.find("=BYP"), std::string::npos);
    EXPECT_NE(text.find("=RF"), std::string::npos);
    EXPECT_NE(text.find("SQUASHED@"), std::string::npos);
}

TEST(PipeView, SquashedInstructionsUseTickZero)
{
    // gem5 convention: a squashed instruction's unreached stages (and
    // its retire) are tick 0, which Konata renders as flushed.
    const Program p = goldenProgram();
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::Baseline, 4);
    const std::string text = traceRun(cfg, p);
    std::istringstream is(text);
    std::string line;
    bool in_squashed = false;
    bool saw_squashed_retire0 = false;
    while (std::getline(is, line)) {
        if (line.find("SQUASHED@") != std::string::npos)
            in_squashed = true;
        if (line.rfind("O3PipeView:retire:", 0) == 0) {
            if (in_squashed) {
                EXPECT_EQ(line.rfind("O3PipeView:retire:0:", 0), 0u)
                    << line;
                saw_squashed_retire0 = true;
            }
            in_squashed = false;
        }
    }
    EXPECT_TRUE(saw_squashed_retire0);
}

TEST(PipeView, RingBufferKeepsLastN)
{
    const Program p = goldenProgram();
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::RbFull, 4);
    trace::Tracer::Options topts;
    topts.ringCap = 8;
    trace::Tracer tracer(topts);
    SimOptions opts;
    opts.tracer = &tracer;
    const SimResult r = simulate(cfg, p, opts);
    ASSERT_TRUE(r.halted);

    ASSERT_EQ(tracer.ring().size(), 8u);
    EXPECT_GT(tracer.finalized(), 8u);
    // Ring holds the *youngest* finalized instructions, oldest first.
    std::uint64_t prev = 0;
    for (const trace::TraceEntry &e : tracer.ring()) {
        EXPECT_GT(e.id, prev);
        prev = e.id;
    }
    EXPECT_EQ(prev, tracer.finalized());
    // The last block of the rendered ring is the halt.
    const std::string text = tracer.renderRing();
    EXPECT_NE(text.find("halt"), std::string::npos);
}

TEST(PipeView, EmissionIsInDispatchOrderAcrossSquashes)
{
    // Squash finalizes youngest-first while older instructions are
    // still in flight; the stream must still come out in trace-id
    // (dispatch) order, which is what O3PipeView consumers require.
    const Program p = goldenProgram();
    const MachineConfig cfg =
        MachineConfig::make(MachineKind::RbLimited, 4);
    const std::string text = traceRun(cfg, p);
    std::istringstream is(text);
    std::string line;
    std::uint64_t prev_id = 0;
    while (std::getline(is, line)) {
        if (line.rfind("O3PipeView:fetch:", 0) != 0)
            continue;
        // fetch line: O3PipeView:fetch:<tick>:0x<pc>:0:<id>:<text>
        std::istringstream ls(line);
        std::string tok;
        for (int i = 0; i < 5; ++i)
            std::getline(ls, tok, ':');
        std::getline(ls, tok, ':');
        const std::uint64_t id = std::stoull(tok);
        EXPECT_EQ(id, prev_id + 1) << line;
        prev_id = id;
    }
    EXPECT_GT(prev_id, 0u);
}

/** Split an O3PipeView document into its 7-line blocks. */
std::vector<std::string>
blocksOf(const std::string &doc)
{
    std::vector<std::string> blocks;
    std::istringstream is(doc);
    std::string block;
    for (std::string line; std::getline(is, line);) {
        block += line + '\n';
        if (line.rfind("O3PipeView:retire:", 0) == 0) {
            blocks.push_back(block);
            block.clear();
        }
    }
    EXPECT_TRUE(block.empty()) << "trailing partial block";
    return blocks;
}

TEST(PipeView, RingEqualsStreamTail)
{
    // The stream renders each block when it is emitted; the ring keeps
    // raw records and renders them only when read. Both must produce the
    // same text: the ring dump is exactly the last N blocks of the
    // golden-pinned stream, squash causes and abort reasons included —
    // for runs that reach HALT and runs a cycle budget cuts off with
    // instructions in flight.
    const Program p = goldenProgram();
    constexpr std::size_t ringCap = 24;
    bool saw_squashed = false;
    bool saw_in_flight = false;
    for (const MachineKind kind : allMachines) {
        const MachineConfig cfg = MachineConfig::make(kind, 4);
        // The program needs 357-400 cycles on these machines.
        for (const Cycle budget : {Cycle{250}, Cycle{100'000}}) {
            SCOPED_TRACE(cfg.label + " budget " + std::to_string(budget));
            std::ostringstream os;
            trace::Tracer::Options topts;
            topts.stream = &os;
            topts.ringCap = ringCap;
            trace::Tracer tracer(topts);
            SimOptions opts;
            opts.tracer = &tracer;
            opts.maxCycles = budget;
            const SimResult r = simulate(cfg, p, opts);
            EXPECT_EQ(r.halted, budget > 250);

            const std::vector<std::string> stream = blocksOf(os.str());
            ASSERT_GT(stream.size(), ringCap);
            std::string tail;
            for (std::size_t i = stream.size() - ringCap; i < stream.size();
                 ++i)
                tail += stream[i];
            const std::string ring = tracer.renderRing();
            EXPECT_EQ(ring, tail);
            saw_squashed |= ring.find("SQUASHED@") != std::string::npos;
            saw_in_flight |= ring.find("IN-FLIGHT(") != std::string::npos;
        }
    }
    EXPECT_TRUE(saw_squashed);
    EXPECT_TRUE(saw_in_flight);
}

TEST(PipeView, RetiredRecordsAreCompleteAndCountedByCosim)
{
    // Every retired instruction issued, then completed after its issue
    // cycle, and the tracer saw exactly the instructions co-simulation
    // checked (tracing composes with the cosim retire hook).
    const Program p = goldenProgram();
    for (const MachineKind kind : allMachines) {
        const MachineConfig cfg = MachineConfig::make(kind, 4);
        SCOPED_TRACE(cfg.label);
        trace::Tracer::Options topts;
        topts.ringCap = 4096; // holds the whole run
        trace::Tracer tracer(topts);
        SimOptions opts;
        opts.tracer = &tracer;
        const SimResult r = simulate(cfg, p, opts);
        ASSERT_TRUE(r.halted);
        ASSERT_LT(tracer.finalized(), topts.ringCap);

        std::uint64_t retired = 0;
        for (const trace::TraceEntry &e : tracer.ring()) {
            if (e.squashed)
                continue;
            ++retired;
            EXPECT_TRUE(e.issued && e.completed) << e.text;
            EXPECT_LE(e.dispatch, e.issue) << e.text;
            EXPECT_LT(e.issue, e.complete) << e.text;
            EXPECT_LE(e.complete, e.retire) << e.text;
        }
        EXPECT_GT(retired, 0u);
        EXPECT_EQ(retired, r.counter("cosim.checked"));
        EXPECT_EQ(retired, r.counter("core.retired"));
    }
}

TEST(PipeView, OutOfOrderFinalizationBeyondInitialSpan)
{
    // A squash storm behind a stalled head can leave thousands of
    // younger ids finalized while the head is still in flight: more than
    // the tracer's initial emission window. The window grows and the
    // stream still comes out in dispatch order, with the ring its tail.
    constexpr std::uint64_t n = 5000;
    std::ostringstream os;
    trace::Tracer::Options topts;
    topts.stream = &os;
    topts.ringCap = 64;
    trace::Tracer tracer(topts);
    std::vector<RobEntry> rob(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        rob[i].seq = i;
        rob[i].pcIndex = i % 16;
    }
    // Storms of 500 — dispatch, then squash youngest-first — behind a
    // head (id 1) that stays in flight.
    tracer.onDispatch(rob[0]);
    for (std::uint64_t first = 1; first < n; first += 500) {
        const std::uint64_t last = std::min(n, first + 500);
        for (std::uint64_t i = first; i < last; ++i)
            tracer.onDispatch(rob[i]);
        for (std::uint64_t i = last; i-- > first;)
            tracer.onSquash(rob[i], i, 0, 0);
    }
    EXPECT_TRUE(os.str().empty()); // all waiting on the head
    tracer.onRetire(rob[0], 20);
    tracer.finish();
    EXPECT_EQ(tracer.finalized(), n);

    const std::vector<std::string> stream = blocksOf(os.str());
    ASSERT_EQ(stream.size(), n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::string id = ":0:" + std::to_string(i + 1) + ":";
        ASSERT_NE(stream[i].find(id), std::string::npos) << stream[i];
    }
    std::string tail;
    for (std::size_t i = n - topts.ringCap; i < n; ++i)
        tail += stream[i];
    EXPECT_EQ(tracer.renderRing(), tail);
}

} // namespace
} // namespace rbsim
