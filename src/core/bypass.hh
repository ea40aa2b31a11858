/**
 * @file
 * Result-availability model for full and limited bypass networks (paper
 * sections 4.1 and 4.2).
 *
 * A producer selected at cycle `s` with latencies (early, late) drops its
 * result onto bypass level k at select cycle `s + early + k - 1`
 * (k = 1..3); levels 1-2 carry the redundant binary form when the producer
 * is dual-format, level 3 carries two's complement (the converter output),
 * and the register file serves every later cycle starting at
 * `s + early + 3`. Consumers requiring two's complement cannot use
 * RB-carrying levels; RB-input consumers accept either form.
 *
 * Limited networks remove levels, producing *holes* in availability that
 * the section 4.3 scheduler schedules around. `availPattern` is the one
 * definition: the interleaved-0/1 shift-register initialization of the
 * paper's Figure 8 wakeup logic, from which `operandAvail` reads one bit
 * and `firstAvail` counts trailing zeros.
 */

#ifndef RBSIM_CORE_BYPASS_HH
#define RBSIM_CORE_BYPASS_HH

#include "core/machine_config.hh"

namespace rbsim
{

/** Availability of one produced value, written at producer select time. */
struct ProdAvail
{
    Cycle early = 0;      //!< first bypass availability (RB form if dual)
    Cycle late = 0;       //!< first TC availability (== early if !dual)
    Cycle rfTc = 0;       //!< TC register file serves [rfTc, inf)
    std::uint8_t cluster = 0; //!< producing cluster
    bool dual = false;    //!< result passes the format converter

    /** Availability record for a value that is simply "in the register
     * file" (e.g. before the program starts, or after retire). */
    static ProdAvail
    always()
    {
        return ProdAvail{0, 0, 0, 0, false};
    }

    /** Build from a producer's select cycle and its latency pair. */
    static ProdAvail
    make(Cycle select, LatencyPair lat, unsigned num_levels,
         std::uint8_t producing_cluster)
    {
        ProdAvail p;
        p.early = select + lat.early;
        p.late = select + lat.late;
        p.rfTc = select + lat.early + num_levels;
        p.cluster = producing_cluster;
        p.dual = lat.late > lat.early;
        return p;
    }
};

/**
 * The Figure 8 wakeup pattern of one operand: bit i is set iff a consumer
 * in cluster `consumer_cluster` can be selected at cycle `p.early + i`.
 * Every bit from `p.rfTc - p.early` up is set (the register file); a
 * producer not yet selected (`p.early == neverCycle`) gives 0. With
 * hole-aware scheduling off, only the top run of ones is kept: all a
 * from-now-on wakeup can express.
 *
 * @param cfg the machine (bypass structure, cross-cluster delay)
 * @param p the producer's availability record
 * @param needs_tc true when the consuming operand requires two's
 *        complement (TC-input instruction, or store data)
 * @param consumer_cluster cluster of the consuming functional unit
 */
std::uint64_t availPattern(const MachineConfig &cfg, const ProdAvail &p,
                           bool needs_tc, unsigned consumer_cluster);

/** Can a consumer selected at cycle t obtain the operand? (One bit of
 * availPattern.) */
bool operandAvail(const MachineConfig &cfg, const ProdAvail &p,
                  bool needs_tc, unsigned consumer_cluster, Cycle t);

/**
 * First cycle at or after `from` at which the operand is available
 * (bounded: the register file always serves). `p` must be produced.
 */
Cycle firstAvail(const MachineConfig &cfg, const ProdAvail &p,
                 bool needs_tc, unsigned consumer_cluster, Cycle from);

/** True if the operand was served from a bypass path rather than the
 * register file at cycle t (for the Figure 13 accounting). */
bool servedByBypass(const ProdAvail &p, Cycle t);

} // namespace rbsim

#endif // RBSIM_CORE_BYPASS_HH
