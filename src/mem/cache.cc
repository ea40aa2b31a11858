#include "mem/cache.hh"

#include <cassert>

#include "common/bitutil.hh"

namespace rbsim
{

CacheModel::CacheModel(const CacheParams &params)
    : ways(params.assoc), lineSize(params.lineBytes)
{
    assert(params.sizeBytes % (params.assoc * params.lineBytes) == 0);
    sets = params.sizeBytes / (params.assoc * params.lineBytes);
    assert(isPow2(sets) && isPow2(lineSize));
    array.resize(static_cast<std::size_t>(sets) * ways);
}

void
CacheModel::writeStats(StatGroup g) const
{
    g.counter("accesses", accesses);
    g.counter("misses", misses);
}

unsigned
CacheModel::setOf(Addr addr) const
{
    return static_cast<unsigned>((addr / lineSize) & (sets - 1));
}

Addr
CacheModel::tagOf(Addr addr) const
{
    return addr / lineSize / sets;
}

bool
CacheModel::probe(Addr addr) const
{
    const unsigned set = setOf(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < ways; ++w) {
        const Way &way = array[static_cast<std::size_t>(set) * ways + w];
        if (way.valid && way.tag == tag)
            return true;
    }
    return false;
}

bool
CacheModel::access(Addr addr)
{
    ++accesses;
    ++useClock;
    const unsigned set = setOf(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < ways; ++w) {
        Way &way = array[static_cast<std::size_t>(set) * ways + w];
        if (way.valid && way.tag == tag) {
            way.lastUse = useClock;
            return true;
        }
    }
    ++misses;
    return false;
}

void
CacheModel::fill(Addr addr)
{
    ++useClock;
    const unsigned set = setOf(addr);
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < ways; ++w) {
        Way &way = array[static_cast<std::size_t>(set) * ways + w];
        if (way.valid && way.tag == tag) {
            way.lastUse = useClock; // already filled by a racing access
            return;
        }
    }
    Way *victim = nullptr;
    for (unsigned w = 0; w < ways; ++w) {
        Way &way = array[static_cast<std::size_t>(set) * ways + w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (!victim || way.lastUse < victim->lastUse)
            victim = &way;
    }
    assert(victim);
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock;
}

} // namespace rbsim
