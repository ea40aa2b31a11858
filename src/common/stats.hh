/**
 * @file
 * Statistics toolkit: counters, means, histograms, and the
 * self-registering stat registry.
 *
 * The registry is the instrumentation backbone (gem5-style): each
 * pipeline component binds its named counters, vectors, histograms, and
 * derived formulas into a `StatRegistry` under a hierarchical dotted
 * prefix ("core.retired", "dl1.misses", "bypass.slot"). A run ends by
 * taking a `StatSnapshot` — a plain value copy that outlives the
 * components, compares for equality (determinism tests), and renders
 * the JSON "stats" object of bench cells and served results.
 */

#ifndef RBSIM_COMMON_STATS_HH
#define RBSIM_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
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

/** Geometric mean of a sample vector; all samples must be positive. */
double geometricMean(const std::vector<double> &xs);

/**
 * A named bag of integer counters with insertion-order-independent
 * deterministic formatting. Used for per-run simulator statistics.
 */
class StatSet
{
  public:
    /** Add delta to the named counter (creating it at zero). */
    void
    add(const std::string &name, std::uint64_t delta = 1)
    {
        counters[name] += delta;
    }

    /** Read a counter (0 if absent). */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }

    /** Ratio of two counters; 0 when the denominator is 0. */
    double
    ratio(const std::string &num, const std::string &den) const
    {
        const std::uint64_t d = get(den);
        return d == 0 ? 0.0 : static_cast<double>(get(num)) / d;
    }

    /** All counters, sorted by name. */
    const std::map<std::string, std::uint64_t> &all() const
    { return counters; }

    /** Render "name = value" lines. */
    std::string format() const;

  private:
    std::map<std::string, std::uint64_t> counters;
};

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
        ++count;
    }

    /** Record the same sample `n` times (idle-cycle fast-forward). */
    void
    record(std::size_t value, std::uint64_t n)
    {
        if (value >= buckets.size())
            value = buckets.size() - 1;
        buckets[value] += n;
        count += n;
    }

    /** Zero every bucket in place (storage and address stay stable, so
     * registered histogram views survive the end of a warmup leg). */
    void
    reset()
    {
        std::fill(buckets.begin(), buckets.end(), 0);
        count = 0;
    }

    /** Samples recorded so far. */
    std::uint64_t samples() const { return count; }

    /** Raw bucket counts. */
    const std::vector<std::uint64_t> &raw() const { return buckets; }

    /** Fraction of samples in bucket i. */
    double
    fraction(std::size_t i) const
    {
        if (count == 0 || i >= buckets.size())
            return 0.0;
        return static_cast<double>(buckets[i]) / static_cast<double>(count);
    }

  private:
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
};

/**
 * A point-in-time value copy of every registered statistic. Snapshots
 * are plain data: they survive the components they were taken from,
 * compare for equality, and render as JSON.
 */
struct StatSnapshot
{
    std::map<std::string, std::uint64_t> counters;
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
 * their own counters (the registry stores pointers, not values), so
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

    /** Register a derived value, evaluated at snapshot time. */
    void addFormula(const std::string &name, std::function<double()> fn,
                    const std::string &desc = "");

    /** Copy every current value out. */
    StatSnapshot snapshot() const;

    /** Deterministic "name = value" text dump of all scalars. */
    std::string format() const;

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
    struct FormulaRef { std::function<double()> fn; std::string desc; };

    std::map<std::string, CounterRef> counterRefs;
    std::map<std::string, VectorRef> vectorRefs;
    std::map<std::string, HistRef> histRefs;
    std::map<std::string, FormulaRef> formulaRefs;
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

    void
    formula(const std::string &name, std::function<double()> fn,
            const std::string &desc = "") const
    {
        reg->addFormula(prefix + name, std::move(fn), desc);
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
