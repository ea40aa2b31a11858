/**
 * @file
 * Memory hierarchy timing: pipelined L1 caches, a 2-banked unified L2,
 * and a 32-banked main memory (paper Table 2).
 *
 * All timestamps are in core cycles. Bank contention is modeled with
 * per-bank next-free times: an access that finds its bank busy starts
 * when the bank frees. L1 caches are pipelined and un-banked; stores
 * update tags at retirement through a write buffer without stalling.
 */

#ifndef RBSIM_MEM_HIERARCHY_HH
#define RBSIM_MEM_HIERARCHY_HH

#include <vector>

#include "mem/cache.hh"

namespace rbsim
{

/** The three-level hierarchy. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const MachineConfig &cfg);

    /**
     * Instruction fetch of the line containing addr starting at `now`.
     * @return cycle at which the fetch group is available
     */
    Cycle instFetch(Addr addr, Cycle now);

    /**
     * Data read starting at `now` (the cycle the SAM-decoded access
     * begins). @return cycle at which the data is available
     */
    Cycle dataRead(Addr addr, Cycle now);

    /**
     * Retired-store tag update: allocate the line on miss without
     * stalling (write-buffered), keeping tag state warm for later loads.
     */
    void dataWriteTouch(Addr addr, Cycle now);

    /**
     * Functional-touch API (fast-forward warming): walk the same tag
     * hit/miss/fill paths as the timed accessors, but with no bank
     * timestamps, so a functional-only pass keeps the tag arrays exactly
     * as warm as a detailed run would. The owning FastForward engine's
     * own hit/miss counters absorb the accounting.
     */
    void warmInstTouch(Addr addr);
    void warmLoadTouch(Addr addr);
    void warmStoreTouch(Addr addr);

    /** Tag arrays (stats inspection). */
    const CacheModel &il1() const { return il1Cache; }
    const CacheModel &dl1() const { return dl1Cache; }
    const CacheModel &l2() const { return l2Cache; }

    /** Mutable tag arrays (checkpoint restore). */
    CacheModel &il1() { return il1Cache; }
    CacheModel &dl1() { return dl1Cache; }
    CacheModel &l2() { return l2Cache; }

    /** Accumulated memory (DRAM) accesses. */
    std::uint64_t memAccesses = 0;

    /** Write il1/dl1/l2/mem stats into `snap` ("il1.*", ..., "mem.*"). */
    void writeStats(StatSnapshot &snap) const;

  private:
    /** L2 access beginning at `start`; returns data-ready cycle. */
    Cycle accessL2(Addr addr, Cycle start);

    /** DRAM access beginning at `start`; returns data-ready cycle. */
    Cycle accessMem(Addr addr, Cycle start);

    const MachineConfig &config;
    CacheModel il1Cache;
    CacheModel dl1Cache;
    CacheModel l2Cache;
    std::vector<Cycle> l2BankFree;
    std::vector<Cycle> memBankFree;
};

} // namespace rbsim

#endif // RBSIM_MEM_HIERARCHY_HH
