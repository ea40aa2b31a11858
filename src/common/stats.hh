/**
 * @file
 * Statistics toolkit: means, histograms, and the snapshot a run reports.
 *
 * Each pipeline component keeps its counters, vectors and histograms as
 * plain fields and, when a snapshot is taken, writes their current
 * values into it through a `StatGroup` under a dotted prefix
 * ("core.retired", "dl1.misses", "bypass.slot"). A `StatSnapshot` is a
 * plain value copy that outlives the components, compares for equality
 * (determinism tests), subtracts (a measured window is the end snapshot
 * minus the one taken where it began), and renders the JSON "stats"
 * object of bench cells and served results. Ratios derived from the
 * counters (IPC, miss rates) are not written by components; the sim
 * layer computes them into the snapshot (sim/simulator.hh,
 * deriveFormulas).
 */

#ifndef RBSIM_COMMON_STATS_HH
#define RBSIM_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rbsim
{

class Json;

/** Arithmetic mean of a sample vector (0 for empty input). */
double arithmeticMean(const std::vector<double> &xs);

/** Harmonic mean of a sample vector; all samples must be positive. */
double harmonicMean(const std::vector<double> &xs);

/**
 * Fixed-bucket histogram over small unsigned values (e.g. bypass level
 * used, scheduler wait cycles).
 */
class Histogram
{
  public:
    /** Create with the given number of buckets; larger samples clamp. */
    explicit Histogram(std::size_t nbuckets = 16)
        : buckets(nbuckets, 0)
    {}

    /** Record one sample. */
    void
    record(std::size_t value)
    {
        if (value >= buckets.size())
            value = buckets.size() - 1;
        ++buckets[value];
    }

    /** Record the same sample `n` times (idle-cycle fast-forward). */
    void
    record(std::size_t value, std::uint64_t n)
    {
        if (value >= buckets.size())
            value = buckets.size() - 1;
        buckets[value] += n;
    }

    /** Raw bucket counts. */
    const std::vector<std::uint64_t> &raw() const { return buckets; }

  private:
    std::vector<std::uint64_t> buckets;
};

/**
 * A point-in-time value copy of every statistic the components wrote.
 * Snapshots are plain data: they survive the components they were
 * taken from, compare for equality, subtract, and render as JSON.
 * Components write no formulas; the sim layer derives them from the
 * counters (deriveFormulas).
 */
struct StatSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    //! Ratios derived from the counters (core.ipc, dl1.missRate, ...)
    std::map<std::string, double> formulas;
    //!< vector stats and histogram buckets, keyed like counters
    std::map<std::string, std::vector<std::uint64_t>> vectors;

    /** Counter value (0 when absent). */
    std::uint64_t counter(const std::string &name) const;

    /** Formula value, falling back to the counter (0 when absent). */
    double value(const std::string &name) const;

    /** Vector/histogram buckets (empty when absent). */
    const std::vector<std::uint64_t> &vec(const std::string &name) const;

    /** Ratio of two counters; 0 when the denominator is 0. */
    double ratio(const std::string &num, const std::string &den) const;

    /**
     * What was counted after `start`, a snapshot of the same components
     * taken earlier: every counter and every vector/histogram bucket
     * minus its value in `start`. Counters only grow, so a measured
     * window is its end snapshot since its start. Formulas are not
     * differenced (a difference of ratios is no ratio); the result has
     * none until they are derived from its counters.
     */
    StatSnapshot since(const StatSnapshot &start) const;

    /**
     * The {"counters": .., "formulas": .., "vectors": ..} object, names
     * in order: the "stats" of a bench JSON cell and of a served result
     * (common/json.hh). With `only` nonempty, just the statistics it
     * names.
     */
    Json toJson(const std::vector<std::string> &only = {}) const;

    bool operator==(const StatSnapshot &) const = default;
};

/**
 * A dotted-prefix writer into a snapshot: `StatGroup(snap, "core")
 * .counter("retired", n)` writes n as "core.retired". Components take
 * one by value in their writeStats() hook and write their current
 * values straight in. A group refers to its snapshot and its prefix
 * (a string literal) without owning them, so it lives only within the
 * hook that made it. Writing one name twice into a snapshot (as a
 * counter, vector or histogram alike) throws std::logic_error:
 * collisions are a bug, not a merge.
 */
class StatGroup
{
  public:
    StatGroup(StatSnapshot &s, std::string_view prefix_)
        : snap(&s), prefix(prefix_)
    {}

    void counter(std::string_view name, std::uint64_t v) const;

    void vector(std::string_view name, const std::uint64_t *v,
                std::size_t n) const;

    void histogram(std::string_view name, const Histogram &h) const;

  private:
    /** "<prefix>.<name>", which no statistic in the snapshot has yet. */
    std::string freshName(std::string_view name) const;

    StatSnapshot *snap;
    std::string_view prefix; //!< without the trailing dot
};

} // namespace rbsim

#endif // RBSIM_COMMON_STATS_HH
