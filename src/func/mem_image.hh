/**
 * @file
 * Sparse 64-bit byte-addressable memory image.
 *
 * Backed by 4 KiB pages allocated on first touch. Reads of untouched
 * memory return zero, which also makes wrong-path loads after a branch
 * misprediction safe.
 *
 * Pages are shared_ptr-held so an architectural checkpoint can snapshot
 * the whole image by sharing the page map (copy-on-write). The image
 * writes in place only the pages it *owns* — allocated or cloned by it
 * since it last shared its map — and clones any other page on its
 * first write. Ownership is tracked per page rather than read off the
 * shared_ptr use count, because the holders of a shared page can be
 * other threads (a fast-forward pass keeps writing its image while
 * workers resume windows from its checkpoints), and seeing the count
 * drop to 1 would not order this image's write after their last reads.
 * Images with no outstanding snapshots own every page. An image lives as
 * long as the interpreter or core that owns it; a new run builds a new
 * image that starts by sharing a page map (restorePages): the program's
 * data image (Program::image) or a checkpoint's pages, so an image
 * starts without owning any page and clones each on its first write.
 *
 * A small direct-mapped translation cache (the "xlat" array) sits in
 * front of the page map so the interpreter's hot loads/stores are one
 * compare plus a raw-pointer deref instead of an unordered_map lookup
 * and a shared_ptr chase. Each entry caches the page's *data pointer*
 * directly, plus a `writable` bit recording that the page was owned
 * when the entry was filled — so a store hit touches neither the map
 * nor the control block. Correctness rests on invalidating the cache at
 * every operation that can replace a page's storage or end its
 * ownership behind the cache's back: restorePages, snapshotPages
 * (sharing ends ownership), and copy/move construction/assignment (both
 * sides). A same-image CoW
 * clone refreshes its own entry in lookupWrite, and a *peer* image
 * cloning its copy never moves this image's page, so cached read
 * pointers stay valid across peer writes.
 */

#ifndef RBSIM_FUNC_MEM_IMAGE_HH
#define RBSIM_FUNC_MEM_IMAGE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/types.hh"
#include "isa/program.hh"

namespace rbsim
{

/** Sparse memory. */
class MemImage
{
  public:
    MemImage() = default;
    //! The xlat cache points into the source's map nodes; a copy gets
    //! its own nodes, so it must start cold. The pages themselves are
    //! shared CoW-style, exactly like a snapshot, so neither side owns
    //! them any more.
    MemImage(const MemImage &o) : pages(o.pages)
    {
        disown();
        o.disown();
    }
    MemImage(MemImage &&o) noexcept : pages(std::move(o.pages))
    {
        o.invalidateXlat(); // its cache points at nodes we now own
    }
    MemImage &
    operator=(const MemImage &o)
    {
        pages = o.pages;
        disown();
        o.disown(); // now shares its pages with us
        return *this;
    }
    MemImage &
    operator=(MemImage &&o) noexcept
    {
        pages = std::move(o.pages);
        invalidateXlat();
        o.invalidateXlat();
        return *this;
    }

    /** Read one byte. */
    std::uint8_t
    read8(Addr addr) const
    {
        const std::uint8_t *page = lookupRead(pageOf(addr));
        return page ? page[offsetOf(addr)] : 0;
    }

    /** Write one byte. */
    void
    write8(Addr addr, std::uint8_t value)
    {
        lookupWrite(pageOf(addr))[offsetOf(addr)] = value;
    }

    /**
     * Read a naturally-aligned little-endian value, size fixed at
     * compile time — the interpreter's load fast path (the byte loop
     * folds into a single host load).
     */
    template <unsigned N>
    std::uint64_t
    loadAligned(Addr addr) const
    {
        static_assert(N == 1 || N == 2 || N == 4 || N == 8);
        assert((addr & (N - 1)) == 0 && "unaligned access");
        const std::uint8_t *page = lookupRead(pageOf(addr));
        if (!page)
            return 0;
        const std::uint8_t *b = page + offsetOf(addr);
        std::uint64_t value = 0;
        for (unsigned i = 0; i < N; ++i)
            value |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return value;
    }

    /** Compile-time-sized aligned store (the store fast path). */
    template <unsigned N>
    void
    storeAligned(Addr addr, std::uint64_t value)
    {
        static_assert(N == 1 || N == 2 || N == 4 || N == 8);
        assert((addr & (N - 1)) == 0 && "unaligned access");
        std::uint8_t *b = lookupWrite(pageOf(addr)) + offsetOf(addr);
        for (unsigned i = 0; i < N; ++i)
            b[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }

    /** Read a naturally-aligned little-endian value of `size` bytes. */
    std::uint64_t read(Addr addr, unsigned size) const;

    /** Write a naturally-aligned little-endian value of `size` bytes. */
    void write(Addr addr, std::uint64_t value, unsigned size);

    /** 64-bit convenience accessors (addresses are aligned down). */
    Word read64(Addr addr) const { return loadAligned<8>(addr & ~Addr{7}); }
    void write64(Addr addr, Word v) { storeAligned<8>(addr & ~Addr{7}, v); }

    /** 32-bit convenience accessors. */
    std::uint32_t
    read32(Addr addr) const
    {
        return static_cast<std::uint32_t>(loadAligned<4>(addr & ~Addr{3}));
    }
    void
    write32(Addr addr, std::uint32_t v)
    {
        storeAligned<4>(addr & ~Addr{3}, v);
    }

    /**
     * Share every resident page with the caller (a checkpoint). O(pages)
     * in map size, O(0) in bytes: later writes on either side clone the
     * affected page first (see lookupWrite). Sharing ends this image's
     * ownership of every page, so the xlat cache is dropped.
     */
    PageMap
    snapshotPages() const
    {
        PageMap snap;
        snap.reserve(pages.size());
        for (const auto &[page_no, slot] : pages)
            snap.emplace(page_no, slot.page);
        disown();
        return snap;
    }

    /**
     * Replace the whole image with a page map's pages, re-sharing them
     * (the inverse of snapshotPages): a checkpoint's, or a program's
     * data image. The first write per page after a restore clones it,
     * leaving the source intact for the next restore. Destroys the old
     * map nodes, so the xlat cache drops cold.
     */
    void
    restorePages(const PageMap &snapshot)
    {
        pages.clear();
        for (const auto &[page_no, page] : snapshot)
            pages.emplace(page_no, Slot{page, false});
        invalidateXlat();
    }

    /** Number of resident pages (for tests). */
    std::size_t residentPages() const { return pages.size(); }

  private:
    static Addr pageOf(Addr addr) { return addr >> pageShift; }
    static std::size_t
    offsetOf(Addr addr)
    {
        return static_cast<std::size_t>(addr & (pageSize - 1));
    }

    /**
     * A resident page, and whether this image owns it: allocated or
     * cloned it since it last shared its map, so no other holder — on
     * any thread — has ever seen it, and it may be written in place.
     * `mutable` because sharing (snapshotPages, copy construction) ends
     * ownership from a const image.
     */
    struct Slot
    {
        std::shared_ptr<Page> page;
        mutable bool owned = false;
    };

    //! One xlat entry: page number -> the page's raw data pointer.
    //! Absent pages are never cached (a later first-touch insert must
    //! be observed), so a hit always has live storage behind it.
    //! `writable` caches Slot::owned at fill time so the store fast
    //! path skips the map; every operation that can end ownership or
    //! replace a page's storage without going through lookupWrite
    //! (snapshotPages, restorePages, copy/move
    //! construction/assignment) invalidates the cache, so a stale
    //! `true` cannot survive into a write that must clone. A stale
    //! `false` only costs the slow path.
    struct XlatEntry
    {
        Addr pageNo = ~Addr{0};
        std::uint8_t *data = nullptr;
        bool writable = false;
    };
    static constexpr std::size_t xlatSlots = 32; // power of two

    void
    invalidateXlat() const
    {
        for (XlatEntry &e : xlat)
            e = XlatEntry{};
    }

    /** End ownership of every page: they are about to be shared. */
    void
    disown() const
    {
        for (const auto &kv : pages)
            kv.second.owned = false;
        invalidateXlat();
    }

    /** Page data for reading (nullptr when untouched). The cache is
     * warmed on miss; `mutable` because warming is logically const. A
     * MemImage is single-owner state (one interpreter / one core), so
     * the mutation is not a concurrency hazard. */
    const std::uint8_t *
    lookupRead(Addr page_no) const
    {
        XlatEntry &e = xlat[page_no & (xlatSlots - 1)];
        if (e.pageNo == page_no)
            return e.data;
        const auto it = pages.find(page_no);
        if (it == pages.end())
            return nullptr;
        e.pageNo = page_no;
        e.data = it->second.page->data();
        e.writable = it->second.owned;
        return e.data;
    }

    /** Page data for writing: allocate on first touch, clone a page
     * this image does not own (CoW). Cache hits are served only for
     * owned pages (see XlatEntry::writable), so the clone check can
     * never be skipped. */
    std::uint8_t *
    lookupWrite(Addr page_no)
    {
        XlatEntry &e = xlat[page_no & (xlatSlots - 1)];
        if (e.pageNo == page_no && e.writable)
            return e.data;
        Slot &slot = pages[page_no];
        if (!slot.page)
            slot.page = std::make_shared<Page>();
        else if (!slot.owned)
            slot.page = std::make_shared<Page>(*slot.page); // break CoW
        slot.owned = true;
        e.pageNo = page_no;
        e.data = slot.page->data();
        e.writable = true;
        return e.data;
    }

    std::unordered_map<Addr, Slot> pages;
    //! Direct-mapped page-translation cache; see the file comment.
    mutable std::array<XlatEntry, xlatSlots> xlat{};
};

} // namespace rbsim

#endif // RBSIM_FUNC_MEM_IMAGE_HH
