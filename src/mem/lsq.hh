/**
 * @file
 * Load/store queue with address-based disambiguation and store-to-load
 * forwarding.
 *
 * Policy (uniform across machines, documented in DESIGN.md): a load may
 * issue once every older store's address is known; it forwards from the
 * youngest older store that exactly contains its bytes, is delayed behind
 * a partially-overlapping store until that store leaves the queue, and
 * otherwise reads committed memory. Stores write memory at retirement.
 *
 * Hot-path structure (see docs/PERFORMANCE.md): entries live in a
 * power-of-two ring ordered by insertion, and a direct-mapped seq->slot
 * table makes setAddress/setStoreData O(1). The LSQ holds only memory
 * instructions, so seqs inside it are sparse; the table is sized from
 * the in-flight seq window (bounded by the ROB capacity) and validated
 * against the slot's own seq on every lookup. Stores additionally sit
 * in a compact side ring of [lo, hi) address tags, so disambiguation
 * (olderStoreAddrsKnown, via an amortized known-address prefix cursor)
 * and the youngest-first forwarding search walk candidate stores only,
 * never intervening loads.
 */

#ifndef RBSIM_MEM_LSQ_HH
#define RBSIM_MEM_LSQ_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace rbsim
{

/** One queue entry. */
struct LsqEntry
{
    std::uint64_t seq = 0;   //!< program-order sequence number
    bool isStore = false;
    bool addrKnown = false;
    bool dataReady = false;  //!< store data present (stores only)
    Addr addr = 0;           //!< size-aligned effective address
    unsigned size = 0;       //!< 4 or 8
    Word data = 0;           //!< store data (valid once dataReady)
    std::uint64_t storePos = 0; //!< store-ring position (stores only)
};

/** Outcome of a load's search of older stores. */
struct LoadSearch
{
    bool mayIssue = false;    //!< all older store addresses known, no
                              //!< partial overlap
    bool forwarded = false;   //!< hit a containing older store
    Word data = 0;            //!< forwarded data (size-extracted)
};

/** The queue. */
class LoadStoreQueue
{
  public:
    /**
     * @param max_entries queue capacity
     * @param seq_window upper bound on the live seq span (the core
     *        passes its ROB capacity; sequence numbers of entries in
     *        the queue always fall within one in-flight window). The
     *        default accommodates standalone/test use.
     */
    explicit LoadStoreQueue(unsigned max_entries,
                            unsigned seq_window = 4096);

    /** True if another entry can be inserted. */
    bool hasSpace() const { return size() < capacity; }

    /** Insert at dispatch (program order). */
    void insert(std::uint64_t seq, bool is_store);

    /**
     * Record a computed address. Store address generation is decoupled
     * from store data: a store's address arrives as soon as its base
     * operand is ready, unblocking younger loads' disambiguation.
     */
    void setAddress(std::uint64_t seq, Addr addr, unsigned size);

    /** Record store data once the data operand is ready. */
    void setStoreData(std::uint64_t seq, Word data);

    /**
     * Disambiguation check and forwarding search for the load `seq` with
     * (aligned) address/size. Call only after the load's own address is
     * known.
     */
    LoadSearch searchForLoad(std::uint64_t seq, Addr addr,
                             unsigned size) const;

    /**
     * True when every store older than `seq` has a known address (the
     * load-issue gate, usable before the load's own address exists).
     */
    bool olderStoreAddrsKnown(std::uint64_t seq) const;

    /** Remove the entry for a retired instruction. @return the entry */
    LsqEntry retire(std::uint64_t seq);

    /** Drop all entries younger than `seq` (branch squash). */
    void squashAfter(std::uint64_t seq);

    /** Occupancy (tests). */
    std::size_t size() const
    { return static_cast<std::size_t>(tailPos - headPos); }

    /** Write queue stats into `g` (the "lsq" group). */
    void
    writeStats(StatGroup g) const
    {
        g.counter("inserted", inserted);
        g.counter("searches", searches);
        g.counter("forwards", forwards);
    }

  private:
    /** A model-invariant violation: diagnose and abort the run (the
     * assert that used to guard these paths vanished in -DNDEBUG
     * builds and let bad seqs fall through silently). */
    [[noreturn]] void fatal(const char *what, std::uint64_t seq) const;

    /** Entry holding `seq`, or fatal(). */
    LsqEntry &find(const char *who, std::uint64_t seq);

    LsqEntry &at(std::uint64_t pos) { return slots[pos & slotMask]; }
    const LsqEntry &at(std::uint64_t pos) const
    { return slots[pos & slotMask]; }

    // Entry ring: positions [headPos, tailPos) are live, slot of a
    // position is pos & slotMask.
    std::vector<LsqEntry> slots;
    std::uint64_t slotMask = 0;
    std::uint64_t headPos = 0;
    std::uint64_t tailPos = 0;
    unsigned capacity;

    // Direct-mapped seq -> ring position. Valid only when the named
    // position is live and its slot's seq matches (squash/retire need
    // not clean it up).
    std::vector<std::uint64_t> seqToPos;
    std::uint64_t seqMask = 0;

    // Store side ring: compact address tags of the stores in the queue,
    // in insertion (= seq) order. storeAddrHi == 0 means the address is
    // not known yet (a known store always has hi = lo + size > 0; the
    // entry's addrKnown flag stays authoritative).
    std::vector<std::uint64_t> storeSeqs;
    std::vector<Addr> storeAddrLo;
    std::vector<Addr> storeAddrHi;
    std::vector<std::uint8_t> storeDataRdy;
    std::vector<std::uint64_t> storeEntryPos; //!< back-ref into `slots`
    std::uint64_t storeMask = 0;
    std::uint64_t storeHeadPos = 0;
    std::uint64_t storeTailPos = 0;

    // All stores with store-ring position < knownPrefix have a known
    // address. Advanced lazily in olderStoreAddrsKnown (amortized O(1):
    // it only moves forward, except for a clamp at squash), clamped up
    // at retire and down at squash.
    mutable std::uint64_t knownPrefix = 0;

    std::uint64_t inserted = 0;
    // Counted inside const search paths (wrong-path searches included).
    mutable std::uint64_t searches = 0;
    mutable std::uint64_t forwards = 0;
};

} // namespace rbsim

#endif // RBSIM_MEM_LSQ_HH
