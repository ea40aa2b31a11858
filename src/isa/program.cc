#include "isa/program.hh"

#include <algorithm>
#include <iterator>
#include <map>

namespace rbsim
{

void
Program::addDataWords(Addr base, const std::vector<Word> &words)
{
    DataSegment seg;
    seg.base = base;
    seg.bytes.reserve(words.size() * 8);
    for (Word w : words) {
        for (unsigned i = 0; i < 8; ++i)
            seg.bytes.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
    }
    data.push_back(std::move(seg));
}

void
Program::addDataBytes(Addr base, std::vector<std::uint8_t> bytes)
{
    data.push_back(DataSegment{base, std::move(bytes)});
}

namespace
{

// FNV-1a, 64-bit. Field-by-field (never over struct bytes) so padding
// and any future field reordering cannot silently change the hash.
constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnvPrime = 0x100000001b3ull;

void
mix(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= fnvPrime;
    }
}

void
mixByte(std::uint64_t &h, std::uint8_t b)
{
    h ^= b;
    h *= fnvPrime;
}

/** One effective data byte as a full-width token (splitmix64 finalizer)
 * so the image digest can combine tokens with plain XOR. Two distinct
 * (addr, byte) pairs never alias pre-finalizer: the multiplier is a
 * large odd constant, so equal tokens force equal addresses. */
std::uint64_t
mixPair(Addr addr, std::uint8_t byte)
{
    std::uint64_t z = addr * 0x9e3779b97f4a7c15ull + byte + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Calls fn(lo, hi) for every maximal range inside [first, last]
 * (inclusive) that no range of `ranges` covers. */
template <class Fn>
void
forEachGap(const std::map<Addr, Addr> &ranges, Addr first, Addr last,
           Fn &&fn)
{
    Addr cursor = first;
    auto it = ranges.upper_bound(first);
    if (it != ranges.begin() && std::prev(it)->second >= first) {
        if (std::prev(it)->second >= last)
            return;
        cursor = std::prev(it)->second + 1;
    }
    for (; it != ranges.end() && it->first <= last; ++it) {
        if (it->first > cursor)
            fn(cursor, it->first - 1);
        if (it->second >= last)
            return;
        cursor = it->second + 1;
    }
    fn(cursor, last);
}

/** Add [first, last] (inclusive) to `ranges`, merging the ranges it
 * overlaps or touches so they stay disjoint. */
void
cover(std::map<Addr, Addr> &ranges, Addr first, Addr last)
{
    auto next = [](Addr a) { return a == ~Addr{0} ? a : a + 1; };
    auto it = ranges.upper_bound(first);
    if (it != ranges.begin() && next(std::prev(it)->second) >= first)
        --it;
    while (it != ranges.end() && it->first <= next(last)) {
        first = std::min(first, it->first);
        last = std::max(last, it->second);
        it = ranges.erase(it);
    }
    ranges.emplace(first, last);
}

} // namespace

std::uint64_t
Program::hash() const
{
    std::uint64_t h = fnvOffset;
    mix(h, codeBase);
    mix(h, entry);
    mix(h, code.size());
    for (const Inst &inst : code) {
        mixByte(h, static_cast<std::uint8_t>(inst.op));
        mixByte(h, inst.ra);
        mixByte(h, inst.rb);
        mixByte(h, inst.rc);
        mixByte(h, inst.useLit ? 1 : 0);
        mixByte(h, inst.lit);
        mix(h, static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(inst.disp)));
        mix(h, static_cast<std::uint64_t>(inst.imm64));
    }
    // Hash the effective memory image, not the segment list: memory
    // starts zeroed, so how the image was sliced into segments (one
    // builder call vs per-line `.quad` directives) and any zero
    // padding must not affect program identity. Segments apply in
    // order, so a later zero byte erases an earlier nonzero one.
    //
    // Each surviving (addr, byte) pair — nonzero, and not overwritten by
    // a later segment — folds into an order-insensitive XOR digest, so
    // the visit order does not matter. The segments are walked
    // last-first against the union of the address ranges already
    // walked: a segment's bytes outside that union are exactly its
    // survivors, so every byte and every segment is visited once.
    std::uint64_t img = 0;
    std::uint64_t effective = 0;
    std::map<Addr, Addr> later; // disjoint inclusive ranges, by first
    for (auto seg = data.rbegin(); seg != data.rend(); ++seg) {
        const std::size_t n = seg->bytes.size();
        if (n == 0)
            continue;
        auto fold = [&](Addr lo, Addr hi) {
            for (Addr a = lo;; ++a) {
                const std::uint8_t b = seg->bytes[a - seg->base];
                if (b != 0) {
                    img ^= mixPair(a, b);
                    ++effective;
                }
                if (a == hi)
                    break;
            }
        };
        // A segment's bytes land at base + i modulo 2^64, but a segment
        // only ever shadowed the addresses from its base upwards, so a
        // wrapping segment covers [base, 2^64) for the ones before it.
        const Addr last = seg->base + (n - 1);
        const bool wraps = last < seg->base;
        const Addr top = wraps ? ~Addr{0} : last;
        forEachGap(later, seg->base, top, fold);
        if (wraps)
            forEachGap(later, 0, last, fold);
        cover(later, seg->base, top);
    }
    mix(h, effective);
    mix(h, img);
    return h;
}

} // namespace rbsim
