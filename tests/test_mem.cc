/**
 * @file
 * Unit tests for the memory substrate: cache tag arrays with LRU, the
 * banked hierarchy timing, and the load/store queue.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/lsq.hh"

namespace rbsim
{
namespace
{

CacheParams
smallCache()
{
    // 4 sets x 2 ways x 64B lines = 512B.
    return CacheParams{512, 2, 64, 2, 1, 1};
}

TEST(Cache, GeometryFromParams)
{
    CacheModel c(smallCache());
    EXPECT_EQ(c.numSets(), 4u);
    EXPECT_EQ(c.numWays(), 2u);
    EXPECT_EQ(c.lineBytes(), 64u);
}

TEST(Cache, MissThenHitAfterFill)
{
    CacheModel c(smallCache());
    EXPECT_FALSE(c.access(0x1000));
    c.fill(0x1000);
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1030)); // same line
    EXPECT_FALSE(c.access(0x1040)); // next line
    EXPECT_EQ(c.accesses, 4u);
    EXPECT_EQ(c.misses, 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    CacheModel c(smallCache());
    // Three lines mapping to set 0 (set stride = 4 lines = 256B).
    const Addr a = 0x0000, b = 0x0100, d = 0x0200;
    c.fill(a);
    c.fill(b);
    EXPECT_TRUE(c.access(a)); // a is now MRU
    c.fill(d);                // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, ProbeDoesNotTouchState)
{
    CacheModel c(smallCache());
    c.fill(0x0000);
    c.fill(0x0100);
    // Probing `a` must NOT refresh its recency.
    EXPECT_TRUE(c.probe(0x0000));
    c.fill(0x0200); // evicts 0x0000 (oldest by use)
    EXPECT_FALSE(c.probe(0x0000));
}

TEST(Cache, ReconstructionClearsEverything)
{
    // A new run builds its caches anew; nothing of the old one survives.
    CacheModel c(smallCache());
    c.fill(0x1000);
    c.access(0x1000);
    c = CacheModel(smallCache());
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_EQ(c.accesses, 0u);
    EXPECT_EQ(c.misses, 0u);
}

TEST(Cache, RandomizedAgainstReferenceLru)
{
    // Property: the tag array behaves exactly like a per-set LRU list.
    CacheModel c(smallCache());
    std::vector<std::vector<Addr>> ref(4); // per-set MRU-first line list
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const Addr line = rng.below(32); // 32 distinct lines
        const Addr addr = line * 64;
        const unsigned set = static_cast<unsigned>(line & 3);
        auto &lru = ref[set];
        const auto it = std::find(lru.begin(), lru.end(), line);
        const bool ref_hit = it != lru.end();
        const bool hit = c.access(addr);
        ASSERT_EQ(hit, ref_hit) << "line " << line << " iter " << i;
        if (ref_hit) {
            lru.erase(it);
            lru.insert(lru.begin(), line);
        } else {
            c.fill(addr);
            lru.insert(lru.begin(), line);
            if (lru.size() > 2)
                lru.pop_back();
        }
    }
}

TEST(Hierarchy, HitServedAtL1Latency)
{
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 8);
    MemHierarchy mh(cfg);
    const Cycle first = mh.dataRead(0x1000, 100);
    EXPECT_GT(first, 100u + cfg.dl1.latency); // cold: all the way out
    const Cycle second = mh.dataRead(0x1000, first + 1);
    EXPECT_EQ(second, first + 1 + cfg.dl1.latency);
}

TEST(Hierarchy, ColdMissPaysL2PlusMemory)
{
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 8);
    MemHierarchy mh(cfg);
    const Cycle ready = mh.dataRead(0x40000, 0);
    // dl1 lat + l2 lat + memory lat, give or take bank scheduling.
    EXPECT_GE(ready, cfg.dl1.latency + cfg.l2.latency + cfg.memLatency);
    EXPECT_LE(ready,
              cfg.dl1.latency + cfg.l2.latency + cfg.memLatency + 10);
    EXPECT_EQ(mh.memAccesses, 1u);
}

TEST(Hierarchy, L2HitAfterDl1Eviction)
{
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 8);
    MemHierarchy mh(cfg);
    // Fill a line, then blow it out of the 8KB dl1 with a 16KB sweep.
    Cycle t = mh.dataRead(0x0, 0);
    for (Addr a = 0x100000; a < 0x104000; a += 64)
        t = mh.dataRead(a, t + 1);
    const std::uint64_t mem_before = mh.memAccesses;
    const Cycle ready = mh.dataRead(0x0, t + 1);
    // Must come from L2, not memory.
    EXPECT_EQ(mh.memAccesses, mem_before);
    EXPECT_GE(ready, t + 1 + cfg.dl1.latency + cfg.l2.latency);
    EXPECT_LE(ready, t + 1 + cfg.dl1.latency + cfg.l2.latency +
                         cfg.l2.bankBusy);
}

TEST(Hierarchy, BankContentionSerializesSameBank)
{
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 8);
    MemHierarchy mh(cfg);
    // Two cold misses to lines in the same L2 bank and same memory bank,
    // issued the same cycle: the second is delayed by bank busy time.
    const Addr a = 0x200000;
    const Addr b = a + 64 * cfg.l2.banks * cfg.memBanks;
    const Cycle ra = mh.dataRead(a, 0);
    const Cycle rb = mh.dataRead(b, 0);
    EXPECT_GE(rb, ra + cfg.memBankBusy);
}

TEST(Hierarchy, DifferentBanksProceedInParallel)
{
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 8);
    MemHierarchy mh(cfg);
    const Addr a = 0x200000;
    const Addr b = a + 64; // adjacent line: different L2 and mem bank
    const Cycle ra = mh.dataRead(a, 0);
    const Cycle rb = mh.dataRead(b, 0);
    EXPECT_LE(rb, ra + cfg.l2.bankBusy + 1);
}

TEST(Hierarchy, WriteTouchWarmsTagsWithoutStalling)
{
    const MachineConfig cfg = MachineConfig::make(MachineKind::Ideal, 8);
    MemHierarchy mh(cfg);
    mh.dataWriteTouch(0x3000, 0);
    const Cycle ready = mh.dataRead(0x3000, 1);
    EXPECT_EQ(ready, 1 + cfg.dl1.latency);
}

// ------------------------------------------------------------------ LSQ

TEST(Lsq, InsertAndCapacity)
{
    LoadStoreQueue q(2);
    EXPECT_TRUE(q.hasSpace());
    q.insert(1, false);
    q.insert(2, true);
    EXPECT_FALSE(q.hasSpace());
    q.retire(1);
    EXPECT_TRUE(q.hasSpace());
}

TEST(Lsq, LoadBlockedUntilOlderStoreAddressKnown)
{
    LoadStoreQueue q(8);
    q.insert(1, true);  // store, address unknown
    q.insert(2, false); // load
    EXPECT_FALSE(q.olderStoreAddrsKnown(2));
    q.setAddress(1, 0x1000, 8);
    EXPECT_TRUE(q.olderStoreAddrsKnown(2));
}

TEST(Lsq, ExactForwardNeedsData)
{
    LoadStoreQueue q(8);
    q.insert(1, true);
    q.insert(2, false);
    q.setAddress(1, 0x1000, 8);
    // Address known but data not yet: the load must wait.
    LoadSearch s = q.searchForLoad(2, 0x1000, 8);
    EXPECT_FALSE(s.mayIssue);
    q.setStoreData(1, 0xabcd);
    s = q.searchForLoad(2, 0x1000, 8);
    EXPECT_TRUE(s.mayIssue);
    EXPECT_TRUE(s.forwarded);
    EXPECT_EQ(s.data, 0xabcdu);
}

TEST(Lsq, DisjointStoreDoesNotBlock)
{
    LoadStoreQueue q(8);
    q.insert(1, true);
    q.insert(2, false);
    q.setAddress(1, 0x2000, 8); // data never set; disjoint anyway
    const LoadSearch s = q.searchForLoad(2, 0x1000, 8);
    EXPECT_TRUE(s.mayIssue);
    EXPECT_FALSE(s.forwarded);
}

TEST(Lsq, YoungestContainingStoreWins)
{
    LoadStoreQueue q(8);
    q.insert(1, true);
    q.insert(2, true);
    q.insert(3, false);
    q.setAddress(1, 0x1000, 8);
    q.setStoreData(1, 111);
    q.setAddress(2, 0x1000, 8);
    q.setStoreData(2, 222);
    const LoadSearch s = q.searchForLoad(3, 0x1000, 8);
    ASSERT_TRUE(s.forwarded);
    EXPECT_EQ(s.data, 222u);
}

TEST(Lsq, SubwordForwardFromContainingStore)
{
    LoadStoreQueue q(8);
    q.insert(1, true);
    q.insert(2, false);
    q.setAddress(1, 0x1000, 8);
    q.setStoreData(1, 0x1122334455667788ull);
    const LoadSearch s = q.searchForLoad(2, 0x1004, 4);
    ASSERT_TRUE(s.forwarded);
    EXPECT_EQ(s.data, 0x11223344u);
}

TEST(Lsq, PartialOverlapDelaysLoad)
{
    LoadStoreQueue q(8);
    q.insert(1, true);
    q.insert(2, false);
    q.setAddress(1, 0x1004, 4); // 4B store inside the load's 8B
    q.setStoreData(1, 0xffff);
    const LoadSearch s = q.searchForLoad(2, 0x1000, 8);
    EXPECT_FALSE(s.mayIssue);
}

TEST(Lsq, YoungerStoresAreIgnored)
{
    LoadStoreQueue q(8);
    q.insert(1, false); // load
    q.insert(2, true);  // younger store, same address
    q.setAddress(2, 0x1000, 8);
    q.setStoreData(2, 999);
    const LoadSearch s = q.searchForLoad(1, 0x1000, 8);
    EXPECT_TRUE(s.mayIssue);
    EXPECT_FALSE(s.forwarded);
}

TEST(Lsq, SquashDropsYoungEntries)
{
    LoadStoreQueue q(8);
    q.insert(1, true);
    q.insert(2, false);
    q.insert(3, true);
    q.squashAfter(1);
    EXPECT_EQ(q.size(), 1u);
    q.insert(2, false); // re-dispatch after squash reuses seq numbers
    EXPECT_EQ(q.size(), 2u);
}

TEST(Lsq, RetirePopsInOrder)
{
    LoadStoreQueue q(8);
    q.insert(1, true);
    q.insert(2, false);
    q.setAddress(1, 0x8, 8);
    q.setStoreData(1, 5);
    const LsqEntry e = q.retire(1);
    EXPECT_TRUE(e.isStore);
    EXPECT_EQ(e.data, 5u);
    q.retire(2);
    EXPECT_EQ(q.size(), 0u);
}

} // namespace
} // namespace rbsim
