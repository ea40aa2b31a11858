#include "common/stats.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/json.hh"

namespace rbsim
{

double
arithmeticMean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
harmonicMean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double inv = 0.0;
    for (double x : xs) {
        assert(x > 0.0);
        inv += 1.0 / x;
    }
    return static_cast<double>(xs.size()) / inv;
}

// ------------------------------------------------------------- snapshot

std::uint64_t
StatSnapshot::counter(const std::string &name) const
{
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

double
StatSnapshot::value(const std::string &name) const
{
    const auto it = formulas.find(name);
    if (it != formulas.end())
        return it->second;
    return static_cast<double>(counter(name));
}

const std::vector<std::uint64_t> &
StatSnapshot::vec(const std::string &name) const
{
    static const std::vector<std::uint64_t> empty;
    const auto it = vectors.find(name);
    return it == vectors.end() ? empty : it->second;
}

double
StatSnapshot::ratio(const std::string &num, const std::string &den) const
{
    const std::uint64_t d = counter(den);
    return d == 0 ? 0.0 : static_cast<double>(counter(num)) / d;
}

StatSnapshot
StatSnapshot::since(const StatSnapshot &start) const
{
    StatSnapshot d;
    for (const auto &[name, v] : counters)
        d.counters[name] = v - start.counter(name);
    for (const auto &[name, buckets] : vectors) {
        std::vector<std::uint64_t> &out = (d.vectors[name] = buckets);
        const std::vector<std::uint64_t> &before = start.vec(name);
        for (std::size_t i = 0; i < before.size() && i < out.size(); ++i)
            out[i] -= before[i];
    }
    return d;
}

Json
StatSnapshot::toJson(const std::vector<std::string> &only) const
{
    const auto want = [&](const std::string &name) {
        return only.empty() ||
               std::find(only.begin(), only.end(), name) != only.end();
    };
    Json j = Json::object();
    Json &c = (j["counters"] = Json::object());
    for (const auto &[name, v] : counters)
        if (want(name))
            c[name] = Json(v);
    Json &f = (j["formulas"] = Json::object());
    for (const auto &[name, v] : formulas)
        if (want(name))
            f[name] = Json(v);
    Json &vecs = (j["vectors"] = Json::object());
    for (const auto &[name, buckets] : vectors) {
        if (!want(name))
            continue;
        Json a = Json::array();
        for (std::uint64_t b : buckets)
            a.push(Json(b));
        vecs[name] = std::move(a);
    }
    return j;
}

// ------------------------------------------------------------- registry

void
StatRegistry::claimName(const std::string &name)
{
    if (counterRefs.count(name) || vectorRefs.count(name) ||
        histRefs.count(name)) {
        throw std::logic_error("duplicate stat name: " + name);
    }
}

void
StatRegistry::addCounter(const std::string &name, const std::uint64_t *v,
                         const std::string &desc)
{
    assert(v);
    claimName(name);
    counterRefs[name] = CounterRef{v, desc};
}

void
StatRegistry::addVector(const std::string &name, const std::uint64_t *v,
                        std::size_t n, const std::string &desc)
{
    assert(v);
    claimName(name);
    vectorRefs[name] = VectorRef{v, n, desc};
}

void
StatRegistry::addHistogram(const std::string &name, const Histogram *h,
                           const std::string &desc)
{
    assert(h);
    claimName(name);
    histRefs[name] = HistRef{h, desc};
}

StatSnapshot
StatRegistry::snapshot() const
{
    StatSnapshot snap;
    for (const auto &[name, ref] : counterRefs)
        snap.counters[name] = *ref.v;
    for (const auto &[name, ref] : vectorRefs)
        snap.vectors[name].assign(ref.v, ref.v + ref.n);
    for (const auto &[name, ref] : histRefs) {
        const std::vector<std::uint64_t> &raw = ref.h->raw();
        snap.vectors[name].assign(raw.begin(), raw.end());
    }
    return snap;
}

} // namespace rbsim
