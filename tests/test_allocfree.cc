/**
 * @file
 * The zero-allocation hot-path invariant (docs/PERFORMANCE.md): after a
 * warm-up period, a steady-state simulated cycle performs no heap
 * allocations — all hot structures (ROB/LSQ rings, front pipe, waiter
 * pool, wakeup heap storage, fetch buffer) were sized up front. This
 * binary links rbsim-allochook, the counting operator new replacement.
 */

#include <gtest/gtest.h>

#include "common/alloccount.hh"
#include "common/rng.hh"
#include "core/core.hh"
#include "isa/builder.hh"
#include "rb/simd/rb_batch.hh"

namespace rbsim
{
namespace
{

/**
 * A long-running loop mixing the hot paths: dependent ALU work, stores,
 * forwarded loads, and a data-dependent branch that mispredicts (so the
 * flush/squash path runs in steady state too).
 */
Program
steadyWorkload(unsigned iters)
{
    CodeBuilder cb("steady");
    cb.ldiq(R(1), 0x1234);
    cb.ldiq(R(2), 7);
    cb.ldiq(R(21), 0x40000);
    cb.ldiq(R(22), iters);
    const Label loop = cb.newLabel();
    const Label skip = cb.newLabel();
    cb.bind(loop);
    cb.store(Opcode::STQ, R(1), 0, R(21));
    cb.load(Opcode::LDQ, R(3), 0, R(21)); // forwarded
    cb.opi(Opcode::ADDQ, R(3), 5, R(1));
    // Multiply included deliberately: the RB tree multiplier once built
    // its partial-product list on the heap per operation.
    cb.op3(Opcode::MULQ, R(1), R(2), R(4));
    cb.store(Opcode::STL, R(4), 8, R(21));
    cb.load(Opcode::LDL, R(5), 8, R(21));
    // Data-dependent branch (alternates): steady mispredict traffic.
    cb.opi(Opcode::AND, R(22), 1, R(6));
    cb.branch(Opcode::BEQ, R(6), skip);
    cb.op3(Opcode::ADDQ, R(5), R(4), R(2));
    cb.bind(skip);
    cb.opi(Opcode::SUBQ, R(22), 1, R(22));
    cb.branch(Opcode::BNE, R(22), loop);
    cb.halt();
    return cb.finish();
}

void
expectZeroSteadyStateAllocs(MachineConfig cfg)
{
    ASSERT_TRUE(alloccount::hooked())
        << "test_allocfree must link rbsim-allochook";
    const Program prog = steadyWorkload(2'000'000);
    OooCore core(cfg, prog);

    // Warm up: first touches of MemImage pages, container growth to
    // high-water marks, lazily-built tables.
    for (int i = 0; i < 50'000; ++i)
        core.cycle();
    ASSERT_FALSE(core.halted());

    alloccount::enable(true);
    const std::uint64_t before = alloccount::threadCount();
    for (int i = 0; i < 50'000; ++i)
        core.cycle();
    const std::uint64_t delta = alloccount::threadCount() - before;
    alloccount::enable(false);
    ASSERT_FALSE(core.halted());
    EXPECT_EQ(delta, 0u) << cfg.label << ": " << delta
                         << " heap allocations in 50k steady cycles";
}

TEST(AllocFree, WakeupSchedulerSteadyState)
{
    expectZeroSteadyStateAllocs(
        MachineConfig::make(MachineKind::RbFull, 8));
}

TEST(AllocFree, PolledSchedulerSteadyState)
{
    MachineConfig cfg = MachineConfig::make(MachineKind::Baseline, 4);
    cfg.polledScheduler = true;
    expectZeroSteadyStateAllocs(cfg);
}

TEST(AllocFree, RbBatchPushRunClearAllocatesNothing)
{
    // The SoA batch the execute stage reuses every cycle: capacity is
    // fixed at construction, clear() keeps storage, and run() is one
    // kernel call over preallocated arrays — none of it may touch the
    // heap once built.
    ASSERT_TRUE(alloccount::hooked())
        << "test_allocfree must link rbsim-allochook";
    Rng rng(7);
    simd::RbBatch batch(64);

    alloccount::enable(true);
    const std::uint64_t before = alloccount::threadCount();
    std::uint64_t sink = 0;
    for (int iter = 0; iter < 10'000; ++iter) {
        batch.clear();
        for (std::size_t i = 0; i < batch.capacity(); ++i) {
            const std::uint64_t ap = rng.next();
            const RbNum a(ap, rng.next() & ~ap);
            const std::uint64_t bp = rng.next();
            const RbNum b(bp, rng.next() & ~bp);
            batch.pushScaledAdd(a, static_cast<unsigned>(i & 3), b);
        }
        batch.run();
        for (std::size_t i = 0; i < batch.size(); ++i)
            sink ^= batch.sum(i).plus();
    }
    const std::uint64_t delta = alloccount::threadCount() - before;
    alloccount::enable(false);
    EXPECT_NE(sink, std::uint64_t{0xdeadbeef}); // keep the loop alive
    EXPECT_EQ(delta, 0u)
        << delta << " heap allocations in 10k batch evaluations";
}

} // namespace
} // namespace rbsim
