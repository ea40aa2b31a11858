/**
 * @file
 * Branch prediction: the 48KB hybrid gshare/PAs predictor, 4096-entry BTB,
 * and return-address stack of paper Table 2.
 *
 * Budget breakdown (~48KB):
 *  - gshare: 2^17 two-bit counters (32 KiB), 17-bit global history
 *  - PAs: 4096 x 12-bit local histories (6 KiB) + 2^12 two-bit pattern
 *    counters (1 KiB)
 *  - chooser: 2^15 two-bit counters (8 KiB), indexed like gshare
 *
 * Global history is updated speculatively at prediction time and repaired
 * from a per-branch snapshot on misprediction. Local histories update
 * speculatively without repair (a standard simulator approximation, noted
 * in DESIGN.md); all counters update at retirement.
 */

#ifndef RBSIM_FRONTEND_BRANCH_PRED_HH
#define RBSIM_FRONTEND_BRANCH_PRED_HH

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace rbsim
{

/** Saturating 2-bit counter helpers. */
inline std::uint8_t
counterUpdate(std::uint8_t ctr, bool up)
{
    if (up)
        return ctr < 3 ? ctr + 1 : 3;
    return ctr > 0 ? ctr - 1 : 0;
}

/** Table indices latched at prediction time so retirement trains the
 * exact entries the prediction read. */
struct BpIndices
{
    std::uint32_t gidx = 0;
    std::uint32_t lidx = 0;
    std::uint32_t cidx = 0;
};

/** Predictor state captured per in-flight branch for repair. */
struct BpSnapshot
{
    std::uint32_t globalHistory = 0;
    std::uint8_t rasTop = 0;
    std::array<Addr, 16> ras{};
    BpIndices indices; //!< conditional branches: fetch-time table indices
};

/** Direction predictor component choice (for stats). */
enum class BpComponent : unsigned char { Gshare, Local };

/** Complete table/history state of the hybrid predictor (checkpoints). */
struct PredictorState
{
    std::uint32_t ghist = 0;
    std::vector<std::uint8_t> gshare;
    std::vector<std::uint16_t> localHist;
    std::vector<std::uint8_t> localPht;
    std::vector<std::uint8_t> chooser;
};

/** The hybrid direction predictor. */
class HybridPredictor
{
  public:
    HybridPredictor();

    /**
     * Predict the direction of a conditional branch at pc (index),
     * optionally latching the table indices used (pass them back to
     * update() at retirement).
     */
    bool predict(std::uint64_t pc, BpIndices *latched = nullptr) const;

    /** Which component the chooser would select (stats/tests). */
    BpComponent chosenComponent(std::uint64_t pc) const;

    /** Speculatively shift the outcome into the histories. */
    void speculate(std::uint64_t pc, bool taken);

    /** Current global history (captured into snapshots). */
    std::uint32_t globalHistory() const { return ghist; }

    /** Restore global history after a squash. */
    void restoreHistory(std::uint32_t h) { ghist = h & ghistMask; }

    /** Retirement update: train the exact entries read at fetch. */
    void update(const BpIndices &idx, bool taken);

    /**
     * Functional-touch warming (fast-forward): one architectural branch
     * outcome folded through the same predict-time index latch,
     * speculative history shift, and retirement training the pipeline
     * performs — minus the in-flight window between them, which is the
     * standard warming approximation.
     */
    void
    touch(std::uint64_t pc, bool taken)
    {
        const BpIndices idx = indicesFor(pc);
        speculate(pc, taken);
        update(idx, taken);
    }

    /** Copy out the complete table/history state (checkpoints). */
    PredictorState
    saveState() const
    {
        return PredictorState{ghist, gshareTable, localHist, localPht,
                              chooser};
    }

    /** Install a saved state; stat counters are left untouched. Throws
     * std::invalid_argument, changing nothing, when a table's size
     * differs from this predictor's. */
    void
    restoreState(const PredictorState &s)
    {
        if (s.gshare.size() != gshareTable.size() ||
            s.localHist.size() != localHist.size() ||
            s.localPht.size() != localPht.size() ||
            s.chooser.size() != chooser.size())
            throw std::invalid_argument(
                "predictor state geometry mismatch");
        ghist = s.ghist & ghistMask;
        gshareTable = s.gshare;
        localHist = s.localHist;
        localPht = s.localPht;
        chooser = s.chooser;
    }

    /** Bind predictor stats into `g` (the "bpred" group). */
    void
    registerStats(StatGroup g) const
    {
        g.counter("lookups", &lookups,
                  "direction predictions (wrong path included)");
        g.counter("gshareChosen", &gshareChosen,
                  "lookups the chooser sent to gshare");
        g.counter("localChosen", &localChosen,
                  "lookups the chooser sent to PAs");
    }

  private:
    // Lookup tallies live in const predict(); wrong-path predictions
    // are counted, matching the hardware's table activity.
    mutable std::uint64_t lookups = 0;
    mutable std::uint64_t gshareChosen = 0;
    mutable std::uint64_t localChosen = 0;

    static constexpr unsigned ghistBits = 17;
    static constexpr std::uint32_t ghistMask = (1u << ghistBits) - 1;
    static constexpr unsigned localHistBits = 12;
    static constexpr unsigned numLocalHist = 4096;
    static constexpr unsigned chooserBits = 15;

    unsigned gshareIndex(std::uint64_t pc) const;
    unsigned gshareIndexWith(std::uint64_t pc, std::uint32_t hist) const;
    unsigned localIndex(std::uint64_t pc) const;
    unsigned chooserIndex(std::uint64_t pc) const;

    std::uint32_t ghist = 0;
    std::vector<std::uint8_t> gshareTable;   // 2^17 2-bit counters
    std::vector<std::uint16_t> localHist;    // 4096 12-bit histories
    std::vector<std::uint8_t> localPht;      // 2^12 2-bit counters
    std::vector<std::uint8_t> chooser;       // 2^15 2-bit counters

    BpIndices indicesFor(std::uint64_t pc) const;
};

/** Direct-mapped branch target buffer with partial tags. */
class Btb
{
  public:
    struct Entry
    {
        bool valid = false;
        std::uint32_t tag = 0;
        std::uint64_t target = 0;
    };

    explicit Btb(unsigned entries = 4096);

    /** Look up a predicted target; nullopt on miss. */
    bool lookup(std::uint64_t pc, std::uint64_t &target) const;

    /** Install / update a target. */
    void update(std::uint64_t pc, std::uint64_t target);

    /** Copy out / install the whole table (checkpoints). Installing a
     * table of another size throws std::invalid_argument. */
    const std::vector<Entry> &entries() const { return table; }
    void
    restoreEntries(const std::vector<Entry> &e)
    {
        if (e.size() != table.size())
            throw std::invalid_argument("BTB size mismatch");
        table = e;
    }

  private:
    unsigned indexOf(std::uint64_t pc) const;
    std::uint32_t tagOf(std::uint64_t pc) const;
    std::vector<Entry> table;
    unsigned indexBits;
};

/** 16-entry return address stack. */
class Ras
{
  public:
    /** Push a return address (byte address). */
    void
    push(Addr a)
    {
        top = (top + 1) % stack.size();
        stack[top] = a;
    }

    /** Pop the predicted return address (0 if apparently empty). */
    Addr
    pop()
    {
        const Addr a = stack[top];
        top = (top + stack.size() - 1) % stack.size();
        return a;
    }

    /** Capture for repair. */
    void
    save(BpSnapshot &s) const
    {
        s.rasTop = static_cast<std::uint8_t>(top);
        for (std::size_t i = 0; i < stack.size(); ++i)
            s.ras[i] = stack[i];
    }

    /** Restore after a squash. */
    void
    restore(const BpSnapshot &s)
    {
        top = s.rasTop;
        for (std::size_t i = 0; i < stack.size(); ++i)
            stack[i] = s.ras[i];
    }

  private:
    std::array<Addr, 16> stack{};
    std::size_t top = 0;
};

} // namespace rbsim

#endif // RBSIM_FRONTEND_BRANCH_PRED_HH
