#include "core/scheduler.hh"

namespace rbsim
{

SchedulerBank::SchedulerBank(unsigned num_schedulers, unsigned entries_per,
                             unsigned select_width, unsigned rob_entries)
    : seqs(std::bit_ceil(rob_entries ? rob_entries : 1u), 0),
      gens(seqs.size(), 0), counts(num_schedulers, 0),
      wordsPer(static_cast<unsigned>((seqs.size() + 63) / 64)),
      slotMask(static_cast<unsigned>(seqs.size() - 1)),
      entriesPer(entries_per), selectWidth(select_width)
{
    words.resize(static_cast<std::size_t>(num_schedulers) * wordsPer);
}

void
SchedulerBank::advanceSteering()
{
    // Groups of two consecutive instructions go to each scheduler in a
    // round-robin manner (paper section 5.1).
    if (++steerCount == 2) {
        steerCount = 0;
        rrIndex = (rrIndex + 1) % counts.size();
    }
}

SchedulerBank::SlotRef
SchedulerBank::insert(unsigned s, std::uint64_t seq)
{
    assert(hasSpace(s));
    const SlotRef ref{static_cast<std::uint16_t>(s),
                      static_cast<std::uint16_t>(seq & slotMask)};
#ifndef NDEBUG
    for (unsigned o = 0; o < counts.size(); ++o) {
        assert(!isValid(SlotRef{static_cast<std::uint16_t>(o), ref.slot}) &&
               "two live entries share a ROB slot");
    }
#endif
    setBit(wordOf(ref).valid, ref.slot, true);
    seqs[ref.slot] = seq;
    ++gens[ref.slot];
    ++counts[s];
    return ref;
}

void
SchedulerBank::squashAfter(std::uint64_t seq)
{
    for (unsigned s = 0; s < counts.size(); ++s) {
        for (unsigned wi = 0; wi < wordsPer; ++wi) {
            for (std::uint64_t m = words[s * wordsPer + wi].valid; m;
                 m &= m - 1) {
                const unsigned slot =
                    wi * 64 + static_cast<unsigned>(std::countr_zero(m));
                if (seqs[slot] > seq) {
                    removeSlot(SlotRef{static_cast<std::uint16_t>(s),
                                       static_cast<std::uint16_t>(slot)});
                }
            }
        }
    }
    // A flush that emptied the whole window restarts steering at
    // scheduler 0, pair-aligned, so post-flush dispatch is independent
    // of the squashed instructions' steering history.
    if (occupancy() == 0) {
        rrIndex = 0;
        steerCount = 0;
    }
}

std::size_t
SchedulerBank::occupancy() const
{
    std::size_t n = 0;
    for (const unsigned c : counts)
        n += c;
    return n;
}

} // namespace rbsim
