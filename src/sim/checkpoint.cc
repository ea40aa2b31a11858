#include "sim/checkpoint.hh"

namespace rbsim
{

namespace
{

// Little-endian byte stream helpers. The format is versioned by a magic
// header, and every vector is length-prefixed.
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
