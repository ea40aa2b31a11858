#include "mem/hierarchy.hh"

#include <algorithm>

namespace rbsim
{

MemHierarchy::MemHierarchy(const MachineConfig &cfg)
    : config(cfg),
      il1Cache(cfg.il1),
      dl1Cache(cfg.dl1),
      l2Cache(cfg.l2),
      l2BankFree(cfg.l2.banks, 0),
      memBankFree(cfg.memBanks, 0)
{
}

void
MemHierarchy::registerStats(StatRegistry &reg) const
{
    il1Cache.registerStats(statGroup(reg, "il1"));
    dl1Cache.registerStats(statGroup(reg, "dl1"));
    l2Cache.registerStats(statGroup(reg, "l2"));
    statGroup(reg, "mem").counter("accesses", &memAccesses,
                                  "DRAM accesses");
}

Cycle
MemHierarchy::accessMem(Addr addr, Cycle start)
{
    ++memAccesses;
    const unsigned bank = static_cast<unsigned>(
        (addr / config.l2.lineBytes) % config.memBanks);
    const Cycle begin = std::max(start, memBankFree[bank]);
    memBankFree[bank] = begin + config.memBankBusy;
    return begin + config.memLatency;
}

Cycle
MemHierarchy::accessL2(Addr addr, Cycle start)
{
    const unsigned bank = l2Cache.bankOf(addr, config.l2.banks);
    const Cycle begin = std::max(start, l2BankFree[bank]);
    l2BankFree[bank] = begin + config.l2.bankBusy;
    if (l2Cache.access(addr))
        return begin + config.l2.latency;
    const Cycle ready = accessMem(addr, begin + config.l2.latency);
    l2Cache.fill(addr);
    return ready;
}

Cycle
MemHierarchy::instFetch(Addr addr, Cycle now)
{
    if (il1Cache.access(addr))
        return now + config.il1.latency;
    const Cycle ready = accessL2(addr, now + config.il1.latency);
    il1Cache.fill(addr);
    return ready;
}

Cycle
MemHierarchy::dataRead(Addr addr, Cycle now)
{
    if (dl1Cache.access(addr))
        return now + config.dl1.latency;
    const Cycle ready = accessL2(addr, now + config.dl1.latency);
    dl1Cache.fill(addr);
    return ready;
}

void
MemHierarchy::dataWriteTouch(Addr addr, Cycle now)
{
    if (!dl1Cache.access(addr)) {
        // Write-allocate through the write buffer: occupy the L2 bank but
        // do not stall retirement.
        accessL2(addr, now + config.dl1.latency);
        dl1Cache.fill(addr);
    }
}

// Warming mirrors instFetch/dataRead/dataWriteTouch tag-for-tag: access
// the L1, walk to L2 and fill both on a miss, count a DRAM access on an
// L2 miss. Timing (bank busy windows, latencies) is the one thing left
// out — a restored core starts its window with zeroed bank timestamps
// anyway, exactly like one started at the program entry.

void
MemHierarchy::warmInstTouch(Addr addr)
{
    if (il1Cache.access(addr))
        return;
    if (!l2Cache.access(addr)) {
        ++memAccesses;
        l2Cache.fill(addr);
    }
    il1Cache.fill(addr);
}

void
MemHierarchy::warmLoadTouch(Addr addr)
{
    if (dl1Cache.access(addr))
        return;
    if (!l2Cache.access(addr)) {
        ++memAccesses;
        l2Cache.fill(addr);
    }
    dl1Cache.fill(addr);
}

void
MemHierarchy::warmStoreTouch(Addr addr)
{
    // Write-allocate, same as dataWriteTouch.
    warmLoadTouch(addr);
}

} // namespace rbsim
