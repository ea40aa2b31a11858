/**
 * @file
 * Partitioned select-2 schedulers with a bitset wakeup array (paper
 * sections 4.3 and 5.1, Figure 8).
 *
 * The 128-entry instruction window is split into select-2 schedulers
 * (2 x 64 for the 4-wide machine, 4 x 32 for the 8-wide machine). Pairs
 * of consecutive instructions are steered round-robin at dispatch.
 *
 * Every scheduler entry is also a ROB entry, so entries are addressed by
 * their ROB slot (seq mod W, W = bit_ceil(robEntries)) and each
 * scheduler keeps three W-bit masks over those slots, the in-simulator
 * image of Figure 8's latched RESOURCE AVAILABLE bits:
 *
 *  - `ready`: every operand is obtainable this cycle. Maintained by the
 *    core via availability events broadcast when producers are selected
 *    (set at the first usable cycle, cleared and re-set across
 *    availability holes), not recomputed by polling.
 *  - `hole`: the entry is blocked *only* by availability holes this
 *    cycle (drives the hole-wait accounting without a per-entry poll).
 *  - `storeScan`: an unrecorded-address store; it wants early address
 *    generation when scanned.
 *
 * Live seqs lie in [head, head + robEntries), so walking the slots from
 * the ROB head's slot upward, wrapping once, visits entries oldest
 * first — no sort. Select is that walk over the union of the masks: up
 * to `select_width` ready entries issue, non-ready attention entries get
 * their per-cycle side effects (hole statistics, early store AGEN). A
 * per-scheduler occupancy count enforces `entries_per`.
 *
 * Select takes its callbacks as template parameters so the issue code
 * of OooCore inlines into the scan (no `std::function` allocation or
 * indirect calls on the hot path).
 */

#ifndef RBSIM_CORE_SCHEDULER_HH
#define RBSIM_CORE_SCHEDULER_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace rbsim
{

/** The partitioned scheduler bank. */
class SchedulerBank
{
  public:
    /** A (scheduler, ROB slot) coordinate of an inserted entry. */
    struct SlotRef
    {
        std::uint16_t sched = 0;
        std::uint16_t slot = 0;
    };

    /**
     * @param num_schedulers scheduler count
     * @param entries_per capacity of each scheduler
     * @param select_width instructions each scheduler picks per cycle
     * @param rob_entries ROB capacity; entries are addressed by ROB slot
     *        and live seqs must lie within one ROB window
     */
    SchedulerBank(unsigned num_schedulers, unsigned entries_per,
                  unsigned select_width, unsigned rob_entries);

    /** Scheduler the next dispatch group goes to (round-robin pairs). */
    unsigned steerTarget() const { return rrIndex; }

    /** Advance round-robin steering after a dispatched instruction. */
    void advanceSteering();

    /** Can scheduler s accept another entry? */
    bool
    hasSpace(unsigned s) const
    {
        assert(s < counts.size());
        return counts[s] < entriesPer;
    }

    /**
     * Insert an instruction (by sequence number) into scheduler s. Its
     * slot is the ROB slot of `seq`, which no other entry may hold.
     * @return the slot the wakeup masks address it by
     */
    SlotRef insert(unsigned s, std::uint64_t seq);

    /** Remove every entry younger than seq (squash). A squash that
     * empties every scheduler also resets the steering state, so
     * post-flush dispatch steering restarts pair-aligned at scheduler 0
     * (section 5.1 determinism). */
    void squashAfter(std::uint64_t seq);

    /** Total occupied entries. */
    std::size_t occupancy() const;

    /** Occupancy of one scheduler. */
    std::size_t occupancyOf(unsigned s) const { return counts[s]; }

    /** Number of schedulers. */
    unsigned numSchedulers() const
    { return static_cast<unsigned>(counts.size()); }

    /** Entries each scheduler can hold. */
    unsigned capacityPer() const { return entriesPer; }

    // ------------------------------------------------- wakeup array

    /** Latch/clear the RESOURCE AVAILABLE bit of a slot. */
    void
    setReady(SlotRef r, bool on)
    {
        setBit(wordOf(r).ready, r.slot, on);
    }

    /** Latch/clear the blocked-only-by-holes bit of a slot. */
    void
    setHole(SlotRef r, bool on)
    {
        setBit(wordOf(r).hole, r.slot, on);
    }

    /** Latch/clear the wants-early-store-AGEN bit of a slot. */
    void
    setStoreScan(SlotRef r, bool on)
    {
        setBit(wordOf(r).storeScan, r.slot, on);
    }

    /** Is the slot's ready bit set? */
    bool isReady(SlotRef r) const { return wordOf(r).ready >> bitOf(r) & 1; }

    /** Is the slot's hole bit set? */
    bool isHole(SlotRef r) const { return wordOf(r).hole >> bitOf(r) & 1; }

    /** Is the slot's wants-early-store-AGEN bit set? */
    bool
    isStoreScan(SlotRef r) const
    {
        return wordOf(r).storeScan >> bitOf(r) & 1;
    }

    /** Does the slot currently hold this sequence number?
     *
     * Debug assertions ONLY — never use this to validate a queued
     * wakeup event. Sequence numbers are recycled on squash (flushAfter
     * rewinds nextSeq to branch.seq + 1), so after squash → same-cycle
     * re-dispatch a reused slot can hold the *same* seq as the squashed
     * occupant and a stale event would be accepted. The (SlotRef, gen)
     * pair checked by live() names one occupancy uniquely; all event
     * validation goes through it. */
    bool
    holds(SlotRef r, std::uint64_t seq) const
    {
        return isValid(r) && seqs[r.slot] == seq;
    }

    /** Generation of a slot; bumped on every insert, so a (ref, gen)
     * pair names one occupancy of the slot. */
    std::uint32_t genOf(SlotRef r) const { return gens[r.slot]; }

    /** Is the occupancy named by (ref, gen) still live (not issued, not
     * squashed, slot not reused)? */
    bool
    live(SlotRef r, std::uint32_t gen) const
    {
        return isValid(r) && gens[r.slot] == gen;
    }

    /** Sequence number held by a slot (must be valid). */
    std::uint64_t
    seqAt(SlotRef r) const
    {
        assert(isValid(r));
        return seqs[r.slot];
    }

    /** Call `fn(ref, seq)` for every entry of scheduler s, in slot
     * order (tests, oracle). */
    template <class Fn>
    void
    forEachEntry(unsigned s, Fn &&fn) const
    {
        for (unsigned wi = 0; wi < wordsPer; ++wi) {
            for (std::uint64_t m = words[s * wordsPer + wi].valid; m;
                 m &= m - 1) {
                const unsigned slot =
                    wi * 64 + static_cast<unsigned>(std::countr_zero(m));
                fn(SlotRef{static_cast<std::uint16_t>(s),
                           static_cast<std::uint16_t>(slot)},
                   seqs[slot]);
            }
        }
    }

    /** Any ready bit set across all schedulers? */
    bool
    anyReady() const
    {
        for (const Words &w : words)
            if (w.ready)
                return true;
        return false;
    }

    /** Any per-cycle attention (hole accounting / store AGEN) pending? */
    bool
    anyAttention() const
    {
        for (const Words &w : words)
            if (w.hole | w.storeScan)
                return true;
        return false;
    }

    /**
     * Event-driven select cycle: for each scheduler, walk the union of
     * the ready/hole/storeScan masks oldest-first, starting at the slot
     * of `head` (the ROB head's seq). Ready entries are offered to
     * `try_issue(seq, scheduler)`: a true return issues and removes the
     * entry (counting against select_width); false (a load failing
     * memory disambiguation) leaves it latched. Non-ready attention
     * entries get `attend(seq, scheduler, slot)` for their per-cycle
     * side effects. The walk stops once the select ports are exhausted.
     */
    template <class TryIssue, class Attend>
    void
    selectWakeup(std::uint64_t head, TryIssue &&try_issue, Attend &&attend)
    {
        for (unsigned s = 0; s < counts.size(); ++s) {
            unsigned picked = 0;
            walkFrom(
                s, head,
                [](const Words &w) { return w.ready | w.hole | w.storeScan; },
                [&](unsigned slot) {
                    const SlotRef ref{static_cast<std::uint16_t>(s),
                                      static_cast<std::uint16_t>(slot)};
                    if (isReady(ref)) {
                        if (try_issue(seqs[slot], s)) {
                            removeSlot(ref);
                            ++picked;
                        }
                    } else {
                        attend(seqs[slot], s, ref);
                    }
                    return picked < selectWidth;
                });
        }
    }

  private:
    /** One 64-slot word of a scheduler's masks. */
    struct Words
    {
        std::uint64_t valid = 0;
        std::uint64_t ready = 0;
        std::uint64_t hole = 0;
        std::uint64_t storeScan = 0;
    };

    static unsigned bitOf(SlotRef r) { return r.slot & 63u; }

    Words &
    wordOf(SlotRef r)
    {
        return words[r.sched * wordsPer + (r.slot >> 6)];
    }
    const Words &
    wordOf(SlotRef r) const
    {
        return words[r.sched * wordsPer + (r.slot >> 6)];
    }

    bool isValid(SlotRef r) const { return wordOf(r).valid >> bitOf(r) & 1; }

    static void
    setBit(std::uint64_t &mask, unsigned slot, bool on)
    {
        if (on)
            mask |= std::uint64_t{1} << (slot & 63u);
        else
            mask &= ~(std::uint64_t{1} << (slot & 63u));
    }

    void
    removeSlot(SlotRef r)
    {
        Words &w = wordOf(r);
        const std::uint64_t clear = ~(std::uint64_t{1} << bitOf(r));
        w.valid &= clear;
        w.ready &= clear;
        w.hole &= clear;
        w.storeScan &= clear;
        --counts[r.sched];
    }

    /**
     * Visit the set bits of `pick(word)` over scheduler s's words oldest
     * first: from the slot of `head` up to the top, then from slot 0 up
     * to it. `visit(slot)` returns false to stop. A word is read when
     * the walk reaches it; visits only change their own slot's bits.
     */
    template <class Pick, class Visit>
    void
    walkFrom(unsigned s, std::uint64_t head, Pick &&pick, Visit &&visit)
    {
        const Words *w = &words[s * wordsPer];
        const unsigned start = static_cast<unsigned>(head) & slotMask;
        const unsigned first = start >> 6;
        const std::uint64_t upper = ~std::uint64_t{0} << (start & 63u);
        for (unsigned k = 0; k <= wordsPer; ++k) {
            const unsigned wi = (first + k) & (wordsPer - 1);
            std::uint64_t m = pick(w[wi]);
            if (k == 0)
                m &= upper;
            else if (k == wordsPer)
                m &= ~upper;
            for (; m; m &= m - 1) {
                if (!visit(wi * 64 +
                           static_cast<unsigned>(std::countr_zero(m))))
                    return;
            }
        }
    }

    std::vector<Words> words;        //!< scheduler-major, wordsPer each
    std::vector<std::uint64_t> seqs; //!< per ROB slot: occupant's seq
    std::vector<std::uint32_t> gens; //!< per ROB slot: reuse generation
    std::vector<unsigned> counts;    //!< per scheduler: occupancy
    unsigned wordsPer;
    unsigned slotMask;
    unsigned entriesPer;
    unsigned selectWidth;
    unsigned rrIndex = 0;
    unsigned steerCount = 0;
};

} // namespace rbsim

#endif // RBSIM_CORE_SCHEDULER_HH
