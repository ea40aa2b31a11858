/**
 * @file
 * Reorder buffer: in-order window of every in-flight instruction, from
 * dispatch to retirement, with walk-based squash.
 *
 * Storage is a fixed power-of-two ring allocated once at construction
 * (no per-cycle heap traffic; see docs/PERFORMANCE.md). Sequence
 * numbers are dense across the in-flight window — dispatch allocates
 * them consecutively and squash recycles them — so the slot of `seq`
 * is simply seq & mask, and get() is one masked index.
 */

#ifndef RBSIM_CORE_ROB_HH
#define RBSIM_CORE_ROB_HH

#include <array>
#include <bit>
#include <cassert>
#include <vector>

#include "common/types.hh"
#include "isa/inst.hh"
#include "rb/rbnum.hh"

namespace rbsim
{

/** One in-flight instruction. */
struct RobEntry
{
    std::uint64_t seq = 0;      //!< dispatch-order sequence number
    std::uint64_t pcIndex = 0;  //!< instruction index
    Inst inst;

    // Rename state.
    PhysReg dest = invalidPhysReg;
    PhysReg prevDest = invalidPhysReg;
    std::uint8_t archDest = zeroReg;
    struct Src
    {
        PhysReg reg = invalidPhysReg;
        bool needsTc = false;
    };
    std::array<Src, 3> src{};
    std::uint8_t numSrcs = 0;
    PhysReg physA = invalidPhysReg; //!< mapping of ra at rename
    PhysReg physB = invalidPhysReg; //!< mapping of rb at rename
    PhysReg physC = invalidPhysReg; //!< mapping of rc at rename (old dest)

    // Placement.
    std::uint8_t sched = 0;    //!< scheduler id
    std::uint8_t cluster = 0;  //!< cluster id
    Cycle dispatchCycle = 0;

    // Execution status.
    bool issued = false;
    bool complete = false;
    Cycle issueCycle = 0;
    Cycle completeCycle = 0;

    // Results (for retirement and co-simulation).
    Word resultTc = 0;
    bool wroteReg = false;

    // Control flow.
    bool isCtrl = false;
    bool predTaken = false;
    std::uint64_t predNextPc = 0;  //!< predicted next instruction index
    bool fetchStalledJmp = false;  //!< JMP with no predicted target
    bool actualTaken = false;
    std::uint64_t actualNextPc = 0;
    bool mispredicted = false;

    // Memory.
    bool isMemLoad = false;
    bool isMemStore = false;
    bool storeAddrRecorded = false; //!< early AGEN already hit the LSQ
    Addr effAddr = 0;
    unsigned memSize = 0;
    Word storeData = 0;

    bool isHalt = false;

    // Issue-time observations, tallied at retirement (wrong-path
    // instructions never reach the tallies).
    std::uint8_t bypassCaseIdx = 0xff; //!< Figure 13 case of the
                                       //!< last-arriving bypassed source
    bool anyBypassed = false;          //!< >= 1 source came off a bypass
    std::uint8_t bypassSlot = 0xff;    //!< cycles past first availability
    std::uint32_t holeWait = 0;        //!< wait cycles where every
                                       //!< missing operand sat in a hole
    bool usedRbPath = false;           //!< executed on the RB datapath
    bool bogusCorrected = false;       //!< section 3.5 correction fired
    bool loadForwarded = false;        //!< store-to-load forwarding hit

    // Pipeline tracing (src/trace). `fetchCycle` is always stamped at
    // dispatch; the rest are written only while a tracer is attached, so
    // the disabled-tracing hot path stays untouched.
    Cycle fetchCycle = 0;       //!< cycle this instruction left fetch
    std::uint64_t traceId = 0;  //!< tracer dynamic id (0 = not traced)
    //! Per-source bypass annotation (see trace::srcLevelMask): low
    //! nibble = bypass level that fed the operand (0 = register file),
    //! trace::srcRbForm set when it arrived in redundant binary.
    std::array<std::uint8_t, 3> srcBypass{0xff, 0xff, 0xff};
};

// Dispatch zero-fills one entry per dispatched instruction, most of
// them later squashed; branch repair state lives beside the ROB
// (OooCore::robSnaps), for control instructions only.
static_assert(sizeof(RobEntry) <= 224, "keep RobEntry small");

/** The reorder buffer. */
class Rob
{
  public:
    explicit Rob(unsigned max_entries)
        : slots(std::bit_ceil<std::size_t>(
              max_entries ? max_entries : 1)),
          mask(slots.size() - 1), capacity(max_entries)
    {}

    bool hasSpace() const { return count < capacity; }
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** Allocate the next entry; returns a stable-until-retire reference. */
    RobEntry &
    alloc(std::uint64_t seq)
    {
        assert(hasSpace());
        assert(count == 0 || seq == headSeq + count);
        if (count == 0)
            headSeq = seq;
        ++count;
        RobEntry &e = slots[seq & mask];
        e = RobEntry{};
        e.seq = seq;
        return e;
    }

    /** Entry by sequence number (must be in flight). */
    RobEntry &
    get(std::uint64_t seq)
    {
        assert(contains(seq));
        return slots[seq & mask];
    }

    /** Ring slots (a power of two >= the capacity). */
    std::size_t slotCount() const { return slots.size(); }

    /** Ring slot of a sequence number: side arrays of slotCount()
     * entries index per-instruction state by it. */
    std::size_t slotOf(std::uint64_t seq) const { return seq & mask; }

    /** Entry in ring slot `slot` (the slotOf of an in-flight seq). */
    RobEntry &atSlot(std::size_t slot) { return slots[slot]; }

    /** Sequence number of the head (oldest) entry; every in-flight seq
     * lies in [headSequence(), headSequence() + size()). */
    std::uint64_t headSequence() const { return headSeq; }

    /** Entry at the head (oldest). */
    RobEntry &
    head()
    {
        assert(count != 0);
        return slots[headSeq & mask];
    }

    /** Is this sequence number still in flight? */
    bool
    contains(std::uint64_t seq) const
    {
        return count != 0 && seq >= headSeq && seq - headSeq < count;
    }

    /** Retire the head entry. */
    void
    retireHead()
    {
        assert(count != 0);
        ++headSeq;
        --count;
    }

    /**
     * Squash every entry younger than `seq`, youngest first, invoking
     * `undo` for each before it is removed. Templated so the core's
     * squash lambda inlines into the walk (no std::function on the
     * flush path).
     */
    template <class Undo>
    void
    squashAfter(std::uint64_t seq, Undo &&undo)
    {
        while (count != 0 && slots[(headSeq + count - 1) & mask].seq >
                                 seq) {
            undo(slots[(headSeq + count - 1) & mask]);
            --count;
        }
    }

  private:
    std::vector<RobEntry> slots;
    std::uint64_t mask;
    std::uint64_t headSeq = 0;
    std::size_t count = 0;
    unsigned capacity;
};

} // namespace rbsim

#endif // RBSIM_CORE_ROB_HH
