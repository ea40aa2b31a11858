#include "sim/checkpoint.hh"

#include <cstring>
#include <stdexcept>

namespace rbsim
{

namespace
{

// Little-endian byte stream helpers. The format is versioned by a magic
// header; every vector is length-prefixed so deserialize() can validate
// before allocating.
constexpr char ckptMagic[8] = {'R', 'B', 'C', 'K', '0', '0', '0', '1'};

/** serialize()'s byte sink: appends to the image string. */
struct StringSink
{
    std::string &out;

    void byte(std::uint8_t b) { out.push_back(static_cast<char>(b)); }

    void
    bytes(const void *p, std::size_t n)
    {
        out.append(static_cast<const char *>(p), n);
    }
};

/** fingerprint()'s byte sink: folds every byte into FNV-1a, 64-bit, so
 * the hash covers exactly the serialized bytes without building them. */
struct FnvSink
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    byte(std::uint8_t b)
    {
        h ^= b;
        h *= 0x100000001b3ull;
    }

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const std::uint8_t *>(p);
        for (std::size_t i = 0; i < n; ++i)
            byte(c[i]);
    }
};

template <class Sink>
void
putU64(Sink &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.byte(static_cast<std::uint8_t>(v >> (8 * i)));
}

template <class Sink>
void
putU32(Sink &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.byte(static_cast<std::uint8_t>(v >> (8 * i)));
}

struct Reader
{
    const unsigned char *p;
    const unsigned char *end;

    void
    need(std::size_t n) const
    {
        if (static_cast<std::size_t>(end - p) < n)
            throw std::runtime_error("truncated checkpoint image");
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        p += 8;
        return v;
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
        p += 4;
        return v;
    }

    std::uint8_t
    u8()
    {
        need(1);
        return *p++;
    }

    /** Bounded length prefix: counts over this cap cannot be a valid
     * image and would otherwise drive a bad-alloc-sized resize. */
    std::size_t
    count(std::uint64_t cap)
    {
        const std::uint64_t n = u64();
        if (n > cap)
            throw std::runtime_error("malformed checkpoint image");
        return static_cast<std::size_t>(n);
    }
};

template <class Sink>
void
putTagState(Sink &out, const CacheModel::TagState &t)
{
    putU64(out, t.array.size());
    for (const CacheModel::Way &w : t.array) {
        out.byte(w.valid ? 1 : 0);
        putU64(out, w.tag);
        putU64(out, w.lastUse);
    }
    putU64(out, t.useClock);
}

CacheModel::TagState
getTagState(Reader &r)
{
    CacheModel::TagState t;
    t.array.resize(r.count(1u << 24));
    for (CacheModel::Way &w : t.array) {
        w.valid = r.u8() != 0;
        w.tag = r.u64();
        w.lastUse = r.u64();
    }
    t.useClock = r.u64();
    return t;
}

/**
 * The one definition of the checkpoint byte layout, written to any
 * sink: serialize() stores it, fingerprint() hashes it.
 */
template <class Sink>
void
writeImage(Sink &out, const ArchCheckpoint &ck)
{
    out.bytes(ckptMagic, sizeof(ckptMagic));
    putU64(out, ck.progHash);
    putU64(out, ck.pc);
    putU64(out, ck.instsExecuted);
    for (Word w : ck.regs)
        putU64(out, w);

    // Memory pages in ascending page-number order, so two checkpoints of
    // identical content serialize identically regardless of map history.
    const auto sorted = pagesInOrder(ck.pages);
    putU64(out, sorted.size());
    for (const auto *kv : sorted) {
        putU64(out, kv->first);
        out.bytes(kv->second->data(), kv->second->size());
    }

    const PredictorState &bp = ck.bpred;
    putU32(out, bp.ghist);
    putU64(out, bp.gshare.size());
    out.bytes(bp.gshare.data(), bp.gshare.size());
    putU64(out, bp.localHist.size());
    for (std::uint16_t h : bp.localHist)
        putU32(out, h);
    putU64(out, bp.localPht.size());
    out.bytes(bp.localPht.data(), bp.localPht.size());
    putU64(out, bp.chooser.size());
    out.bytes(bp.chooser.data(), bp.chooser.size());

    putU64(out, ck.btb.size());
    for (const Btb::Entry &e : ck.btb) {
        out.byte(e.valid ? 1 : 0);
        putU32(out, e.tag);
        putU64(out, e.target);
    }

    out.byte(static_cast<std::uint8_t>(ck.ras.rasTop));
    for (Addr a : ck.ras.ras)
        putU64(out, a);

    putTagState(out, ck.il1);
    putTagState(out, ck.dl1);
    putTagState(out, ck.l2);
}

} // namespace

std::string
ArchCheckpoint::serialize() const
{
    std::string out;
    // Rough size hint: pages dominate, then the gshare table.
    out.reserve(pages.size() * (pageSize + 16) +
                bpred.gshare.size() + 4 * bpred.localHist.size() +
                bpred.localPht.size() + bpred.chooser.size() +
                32 * (il1.array.size() + dl1.array.size() +
                      l2.array.size()) +
                16 * btb.size() + 1024);
    StringSink sink{out};
    writeImage(sink, *this);
    return out;
}

ArchCheckpoint
ArchCheckpoint::deserialize(const std::string &bytes)
{
    Reader r{reinterpret_cast<const unsigned char *>(bytes.data()),
             reinterpret_cast<const unsigned char *>(bytes.data()) +
                 bytes.size()};
    r.need(sizeof(ckptMagic));
    if (std::memcmp(r.p, ckptMagic, sizeof(ckptMagic)) != 0)
        throw std::runtime_error("not a checkpoint image (bad magic)");
    r.p += sizeof(ckptMagic);

    ArchCheckpoint ck;
    ck.progHash = r.u64();
    ck.pc = r.u64();
    ck.instsExecuted = r.u64();
    for (Word &w : ck.regs)
        w = r.u64();

    const std::size_t npages = r.count(1u << 24);
    for (std::size_t i = 0; i < npages; ++i) {
        const Addr pageNo = r.u64();
        r.need(pageSize);
        auto page = std::make_shared<Page>();
        std::memcpy(page->data(), r.p, pageSize);
        r.p += pageSize;
        ck.pages.emplace(pageNo, std::move(page));
    }

    ck.bpred.ghist = r.u32();
    ck.bpred.gshare.resize(r.count(1u << 24));
    for (std::uint8_t &v : ck.bpred.gshare)
        v = r.u8();
    ck.bpred.localHist.resize(r.count(1u << 24));
    for (std::uint16_t &v : ck.bpred.localHist)
        v = static_cast<std::uint16_t>(r.u32());
    ck.bpred.localPht.resize(r.count(1u << 24));
    for (std::uint8_t &v : ck.bpred.localPht)
        v = r.u8();
    ck.bpred.chooser.resize(r.count(1u << 24));
    for (std::uint8_t &v : ck.bpred.chooser)
        v = r.u8();

    ck.btb.resize(r.count(1u << 24));
    for (Btb::Entry &e : ck.btb) {
        e.valid = r.u8() != 0;
        e.tag = r.u32();
        e.target = r.u64();
    }

    ck.ras.rasTop = r.u8();
    // Ras::pop reads the stack at rasTop: it must index the stack.
    if (ck.ras.rasTop >= ck.ras.ras.size())
        throw std::runtime_error("malformed checkpoint image (RAS top)");
    for (Addr &a : ck.ras.ras)
        a = r.u64();

    ck.il1 = getTagState(r);
    ck.dl1 = getTagState(r);
    ck.l2 = getTagState(r);
    if (r.p != r.end)
        throw std::runtime_error("trailing bytes in checkpoint image");
    return ck;
}

std::uint64_t
ArchCheckpoint::fingerprint() const
{
    if (cachedFp)
        return cachedFp;
    FnvSink sink;
    writeImage(sink, *this);
    cachedFp = sink.h ? sink.h : 1; // reserve 0 for "not computed"
    return cachedFp;
}

} // namespace rbsim
