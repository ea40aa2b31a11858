/**
 * @file
 * Availability scoreboard: the per-physical-register RESOURCE AVAILABLE
 * state of the paper's Figure 8 wakeup logic, plus the Figure 13 bypass-
 * case accounting.
 *
 * Each physical register carries a ProdAvail timeline written when its
 * producer is selected. Registers holding architectural state (or whose
 * producer has long since completed) are "always available".
 */

#ifndef RBSIM_CORE_SCOREBOARD_HH
#define RBSIM_CORE_SCOREBOARD_HH

#include <vector>

#include "core/bypass.hh"

namespace rbsim
{

/** The four bypass cases of the paper's Figure 13. */
enum class BypassCase : unsigned char
{
    TcToTc, //!< TC result forwarded to a TC-input operand
    TcToRb, //!< TC result forwarded to an RB-capable operand
    RbToRb, //!< RB result forwarded to an RB-capable operand
    RbToTc, //!< RB result forwarded to a TC operand: needs conversion

    NumCases,
};

/** Number of bypass cases. */
constexpr unsigned numBypassCases =
    static_cast<unsigned>(BypassCase::NumCases);

/** Figure 13 label for a case. */
const char *bypassCaseName(BypassCase c);

/** Classify a (producer, consumer-operand) pair. */
inline BypassCase
classifyBypass(bool producer_dual, bool consumer_needs_tc)
{
    if (producer_dual)
        return consumer_needs_tc ? BypassCase::RbToTc : BypassCase::RbToRb;
    return consumer_needs_tc ? BypassCase::TcToTc : BypassCase::TcToRb;
}

/** The scoreboard. */
class Scoreboard
{
  public:
    explicit Scoreboard(unsigned num_phys_regs)
        : avail(num_phys_regs, ProdAvail::always())
    {}

    /** Record a producer's availability timeline at select. */
    void
    produce(PhysReg r, const ProdAvail &p)
    {
        avail[r] = p;
    }

    /** Mark a register always-available (free-list recycling). */
    void
    clear(PhysReg r)
    {
        avail[r] = ProdAvail::always();
    }

    /** Mark a register never-available (allocated, producer not issued). */
    void
    markPending(PhysReg r)
    {
        ProdAvail p;
        p.early = p.late = p.rfTc = neverCycle;
        avail[r] = p;
    }

    /** The availability record of a register. */
    const ProdAvail &
    of(PhysReg r) const
    {
        return avail[r];
    }

  private:
    std::vector<ProdAvail> avail;
};

} // namespace rbsim

#endif // RBSIM_CORE_SCOREBOARD_HH
