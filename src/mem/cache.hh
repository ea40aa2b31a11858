/**
 * @file
 * Generic set-associative cache tag model with LRU replacement.
 *
 * Only tags and recency are modeled (data lives in the functional memory
 * image); the timing wrapper in mem/hierarchy.* turns hits and misses into
 * latencies and bank contention.
 */

#ifndef RBSIM_MEM_CACHE_HH
#define RBSIM_MEM_CACHE_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/machine_config.hh"

namespace rbsim
{

/** Set-associative LRU tag array. */
class CacheModel
{
  public:
    /** One way of one set (public for checkpoint serialization). */
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    /** The complete replacement-relevant state of the tag array. */
    struct TagState
    {
        std::vector<Way> array; //!< sets x ways
        std::uint64_t useClock = 0;
    };

    /** Build from geometry parameters. */
    explicit CacheModel(const CacheParams &params);

    /** True if the line containing addr is present (no state change). */
    bool probe(Addr addr) const;

    /**
     * Access the line: on hit, update recency and return true; on miss,
     * return false (call fill() to install).
     */
    bool access(Addr addr);

    /** Install the line, evicting the LRU way. */
    void fill(Addr addr);

    /** Copy out the tag/recency state (checkpoint capture). */
    TagState
    saveTags() const
    {
        return TagState{array, useClock};
    }

    /**
     * Install a previously saved tag state (checkpoint restore). Stats
     * counters are left untouched so a restored measurement window
     * starts clean. Throws std::invalid_argument, changing nothing, when
     * the saved array's geometry differs from this cache's.
     */
    void
    restoreTags(const TagState &state)
    {
        if (state.array.size() != array.size())
            throw std::invalid_argument(
                "cache tag state geometry mismatch");
        array = state.array;
        useClock = state.useClock;
    }

    /** Geometry introspection. */
    unsigned numSets() const { return sets; }
    unsigned numWays() const { return ways; }
    unsigned lineBytes() const { return lineSize; }

    /** Bank index of an address (line interleaved). */
    unsigned
    bankOf(Addr addr, unsigned banks) const
    {
        return static_cast<unsigned>((addr / lineSize) % banks);
    }

    /** Accumulated stats. */
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    /** Write this cache's stats into `g` (e.g. the "dl1" group). */
    void writeStats(StatGroup g) const;

  private:
    unsigned setOf(Addr addr) const;
    Addr tagOf(Addr addr) const;

    unsigned sets;
    unsigned ways;
    unsigned lineSize;
    std::vector<Way> array; // sets x ways
    std::uint64_t useClock = 0;
};

} // namespace rbsim

#endif // RBSIM_MEM_CACHE_HH
