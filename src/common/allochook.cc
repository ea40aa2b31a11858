/**
 * @file
 * Counting global operator new/delete replacement (see
 * common/alloccount.hh). Built as its own object library
 * (`rbsim-allochook`); executables that link it get per-thread
 * allocation counts, everything else keeps the stock allocator. An
 * object library is linked whole, so this object (and its markHooked
 * initializer) is present even when a sanitizer runtime already defines
 * operator new; the linker would skip it as a static archive member.
 */

#include <cstdlib>
#include <new>

#include "common/alloccount.hh"

namespace
{

struct HookInit
{
    HookInit() { rbsim::alloccount::markHooked(); }
} hookInit;

inline void
bump()
{
    using namespace rbsim::alloccount;
    if (detail::g_enabled)
        ++detail::t_allocs;
}

void *
allocOrThrow(std::size_t n)
{
    bump();
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
allocAlignedOrThrow(std::size_t n, std::size_t align)
{
    bump();
    if (void *p = std::aligned_alloc(align, (n + align - 1) / align *
                                                align))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return allocOrThrow(n);
}

void *
operator new[](std::size_t n)
{
    return allocOrThrow(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    bump();
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    bump();
    return std::malloc(n ? n : 1);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    return allocAlignedOrThrow(n, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return allocAlignedOrThrow(n, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
