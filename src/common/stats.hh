/**
 * @file
 * Statistics toolkit: means, histograms, the self-registering stat
 * registry, and the snapshot a run reports.
 *
 * The registry is the instrumentation backbone (gem5-style): each
 * pipeline component binds its named counters, vectors and histograms
 * into a `StatRegistry` under a hierarchical dotted prefix
 * ("core.retired", "dl1.misses", "bypass.slot"). A run ends by taking a
 * `StatSnapshot` — a plain value copy that outlives the components,
 * compares for equality (determinism tests), subtracts (a measured
 * window is the end snapshot minus the one taken where it began), and
 * renders the JSON "stats" object of bench cells and served results.
 * Ratios derived from the counters (IPC, miss rates) are not registered;
 * the sim layer computes them into the snapshot (sim/simulator.hh,
 * deriveFormulas).
 */

#ifndef RBSIM_COMMON_STATS_HH
#define RBSIM_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
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
 * A point-in-time value copy of every registered statistic. Snapshots
 * are plain data: they survive the components they were taken from,
 * compare for equality, subtract, and render as JSON. A registry
 * snapshot has no formulas; the sim layer derives them from the
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
     * What was counted after `start`, a snapshot of the same registry
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
 * The self-registering stat registry. Components register *views* onto
 * their own counters, vectors and histograms — never derived values —
 * (the registry stores pointers, not values), so
 * registration happens once at construction and reads are always
 * current. Names are hierarchical dotted paths; `StatGroup` carries a
 * prefix so a component never spells its parent's name.
 */
class StatRegistry
{
  public:
    /** Register a scalar counter view. Names must be unique. */
    void addCounter(const std::string &name, const std::uint64_t *v,
                    const std::string &desc = "");

    /** Register a fixed-size vector-of-counters view. */
    void addVector(const std::string &name, const std::uint64_t *v,
                   std::size_t n, const std::string &desc = "");

    /** Register a histogram view (snapshots its buckets). */
    void addHistogram(const std::string &name, const Histogram *h,
                      const std::string &desc = "");

    /** Copy every current value out. */
    StatSnapshot snapshot() const;

  private:
    void claimName(const std::string &name);

    struct CounterRef { const std::uint64_t *v; std::string desc; };
    struct VectorRef
    {
        const std::uint64_t *v;
        std::size_t n;
        std::string desc;
    };
    struct HistRef { const Histogram *h; std::string desc; };

    std::map<std::string, CounterRef> counterRefs;
    std::map<std::string, VectorRef> vectorRefs;
    std::map<std::string, HistRef> histRefs;
};

/**
 * A dotted-prefix handle into a registry: `group("core").counter(
 * "retired", ..)` registers "core.retired". Cheap to copy; components
 * take one by value in their registerStats() hook.
 */
class StatGroup
{
  public:
    StatGroup(StatRegistry &r, std::string prefix_)
        : reg(&r), prefix(std::move(prefix_))
    {}

    /** A child group ("core" -> "core.bypass"). */
    StatGroup
    group(const std::string &sub) const
    {
        return StatGroup(*reg, prefix + sub + ".");
    }

    void
    counter(const std::string &name, const std::uint64_t *v,
            const std::string &desc = "") const
    {
        reg->addCounter(prefix + name, v, desc);
    }

    void
    vector(const std::string &name, const std::uint64_t *v,
           std::size_t n, const std::string &desc = "") const
    {
        reg->addVector(prefix + name, v, n, desc);
    }

    void
    histogram(const std::string &name, const Histogram *h,
              const std::string &desc = "") const
    {
        reg->addHistogram(prefix + name, h, desc);
    }

  private:
    StatRegistry *reg;
    std::string prefix; //!< includes the trailing dot
};

/** Root-level group ("core", "dl1", ...) of a registry. */
inline StatGroup
statGroup(StatRegistry &reg, const std::string &name)
{
    return StatGroup(reg, name + ".");
}

} // namespace rbsim

#endif // RBSIM_COMMON_STATS_HH
