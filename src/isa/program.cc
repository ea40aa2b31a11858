#include "isa/program.hh"

#include <algorithm>
#include <cstring>

namespace rbsim
{

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

} // namespace

std::vector<const PageMap::value_type *>
pagesInOrder(const PageMap &pages)
{
    std::vector<const PageMap::value_type *> sorted;
    sorted.reserve(pages.size());
    for (const auto &kv : pages)
        sorted.push_back(&kv);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto *a, const auto *b) {
                  return a->first < b->first;
              });
    return sorted;
}

void
Program::addDataWords(Addr base, const std::vector<Word> &words)
{
    std::vector<std::uint8_t> bytes(8 * words.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
        for (unsigned b = 0; b < 8; ++b)
            bytes[8 * i + b] = static_cast<std::uint8_t>(words[i] >> (8 * b));
    }
    addDataBytes(base, std::move(bytes));
}

void
Program::addDataBytes(Addr base, std::vector<std::uint8_t> bytes)
{
    // Byte i lands at base + i modulo 2^64, like memory. A page in the
    // map may be shared, so it is replaced, never written.
    for (std::size_t i = 0; i < bytes.size();) {
        const Addr addr = base + i;
        const std::size_t off =
            static_cast<std::size_t>(addr & (pageSize - 1));
        const std::size_t len =
            std::min<std::size_t>(bytes.size() - i, pageSize - off);
        std::shared_ptr<Page> &slot = image[addr >> pageShift];
        slot = slot ? std::make_shared<Page>(*slot)
                    : std::make_shared<Page>();
        std::memcpy(slot->data() + off, bytes.data() + i, len);
        i += len;
    }
}

bool
Program::sameContent(const Program &other) const
{
    if (codeBase != other.codeBase || entry != other.entry ||
        image.size() != other.image.size() || code != other.code)
        return false;
    for (const auto &[page_no, page] : image) {
        const auto it = other.image.find(page_no);
        if (it == other.image.end() ||
            (it->second != page && *it->second != *page))
            return false;
    }
    return true;
}

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
    // Memory starts zeroed, so the image is its nonzero bytes. Each
    // folds in as an (addr, byte) token into an order-insensitive XOR
    // digest, so the page map's iteration order does not matter.
    std::uint64_t img = 0;
    std::uint64_t effective = 0;
    for (const auto &[page_no, page] : image) {
        const Addr base = page_no << pageShift;
        for (std::size_t off = 0; off < pageSize; ++off) {
            const std::uint8_t b = (*page)[off];
            if (b != 0) {
                img ^= mixPair(base + off, b);
                ++effective;
            }
        }
    }
    mix(h, effective);
    mix(h, img);
    return h;
}

} // namespace rbsim
