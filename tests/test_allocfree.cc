/**
 * @file
 * The zero-allocation hot-path invariant (docs/PERFORMANCE.md): after a
 * warm-up period, a steady-state simulated cycle performs no heap
 * allocations — all hot structures (ROB/LSQ rings, front pipe, waiter
 * pool, wakeup heap storage, fetch buffer, and an attached trace ring's
 * records) were sized up front. This binary links rbsim-allochook, the
 * counting operator new replacement.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/alloccount.hh"
#include "core/core.hh"
#include "isa/builder.hh"
#include "serve/server.hh"
#include "trace/tracer.hh"

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

/** With `ring_cap` > 0 a ring-only trace::Tracer of that many records
 * is attached, as rbsim-serve attaches one to every job. */
void
expectZeroSteadyStateAllocs(MachineConfig cfg, std::size_t ring_cap)
{
    ASSERT_TRUE(alloccount::hooked())
        << "test_allocfree must link rbsim-allochook";
    const Program prog = steadyWorkload(2'000'000);
    OooCore core(cfg, prog);
    std::optional<trace::Tracer> ring;
    if (ring_cap) {
        trace::Tracer::Options opts;
        opts.ringCap = ring_cap;
        core.attachTracer(&ring.emplace(opts));
    }

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
    if (ring) {
        EXPECT_EQ(ring->ring().size(), ring_cap); // the ring was filled
    }
}

TEST(AllocFree, WakeupSchedulerSteadyState)
{
    // Without a tracer, and with the abort ring rbsim-serve attaches to
    // every job by default (64 records).
    for (const std::size_t ring :
         {std::size_t{0},
          std::size_t{serve::Server::Options{}.traceLast}}) {
        SCOPED_TRACE("ring=" + std::to_string(ring));
        expectZeroSteadyStateAllocs(
            MachineConfig::make(MachineKind::RbFull, 8), ring);
    }
}

} // namespace
} // namespace rbsim
