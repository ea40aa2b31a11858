#include "core/bypass.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace rbsim
{

std::uint64_t
availPattern(const MachineConfig &cfg, const ProdAvail &p, bool needs_tc,
             unsigned consumer_cluster)
{
    // Not yet produced (scoreboard markPending): nothing to bypass, and
    // `never + cross` must not be allowed to wrap.
    if (p.early == neverCycle)
        return 0;

    // The TC register file serves everyone from rfTc on; the window below
    // it is num_bypass_levels (at most 8) bits.
    const Cycle window = p.rfTc - p.early;
    assert(window < 64);
    const std::uint64_t ones = ~std::uint64_t{0};
    std::uint64_t bits = ones << window;
    // A catch at `early + i` (`only`) or from it on (`from`); one at or
    // past the window is the register file's already, and skipping it
    // keeps a large cross-cluster delay from overflowing the shift.
    const auto only = [&](Cycle i) {
        if (i < window)
            bits |= std::uint64_t{1} << i;
    };
    const auto from = [&](Cycle i) {
        if (i < window)
            bits |= ones << i;
    };
    const Cycle cross =
        (cfg.numClusters > 1 && p.cluster != consumer_cluster)
            ? cfg.crossClusterDelay : 0;

    switch (cfg.kind) {
      case MachineKind::Baseline:
      case MachineKind::Ideal:
        // Single format: level k catches at early + k - 1 when present.
        for (unsigned k = 1; k <= cfg.numBypassLevels; ++k) {
            if (cfg.bypassLevelMask & (1u << (k - 1)))
                only(cross + k - 1);
        }
        break;

      case MachineKind::RbFull: {
        // Level 1 (and the RB register file immediately behind it) serve
        // RB-input consumers from `early`; the converter output and the
        // TC register file serve TC consumers from `late`. Availability
        // is continuous (paper: "the timing of operations is the same as
        // when using all TC register files").
        // A config's latency table may put late before early; such a
        // catch is available from bit 0.
        const Cycle c = (needs_tc ? p.late : p.early) + cross;
        from(c - std::min(c, p.early));
        break;
      }

      case MachineKind::RbLimited:
        // BYP-2 removed; BYP-3 is not wired into RB-input functional
        // units (paper section 4.2). Dual-format producers expose BYP-1
        // (RB) and BYP-3 (TC); TC producers expose TC data on both.
        if (p.dual && needs_tc) {
            only(cross + (p.late - p.early)); // BYP-3, then the RF
        } else {
            only(cross); // BYP-1, then the hole
            if (needs_tc)
                only(cross + 2); // a TC producer's BYP-3
        }
        break;
    }

    if (!cfg.holeAwareScheduling)
        bits = ones << (64 - std::countl_one(bits));
    return bits;
}

bool
operandAvail(const MachineConfig &cfg, const ProdAvail &p, bool needs_tc,
             unsigned consumer_cluster, Cycle t)
{
    if (t < p.early)
        return false;
    return t - p.early >= 64 ||
           (availPattern(cfg, p, needs_tc, consumer_cluster) >>
                (t - p.early) & 1);
}

Cycle
firstAvail(const MachineConfig &cfg, const ProdAvail &p, bool needs_tc,
           unsigned consumer_cluster, Cycle from)
{
    assert(p.early != neverCycle);
    const Cycle lo = std::max(from, p.early);
    if (lo - p.early >= 64)
        return lo;
    return lo + std::countr_zero(
                    availPattern(cfg, p, needs_tc, consumer_cluster) >>
                    (lo - p.early));
}

bool
servedByBypass(const ProdAvail &p, Cycle t)
{
    return t < p.rfTc;
}

} // namespace rbsim
