#include "func/mem_image.hh"

namespace rbsim
{

std::uint64_t
MemImage::read(Addr addr, unsigned size) const
{
    assert(size == 1 || size == 2 || size == 4 || size == 8);
    assert((addr & (size - 1)) == 0 && "unaligned access");
    std::uint64_t value = 0;
    // A naturally-aligned access never crosses a page boundary.
    const std::uint8_t *page = lookupRead(pageOf(addr));
    if (!page)
        return 0;
    const std::size_t off = offsetOf(addr);
    for (unsigned i = 0; i < size; ++i)
        value |= static_cast<std::uint64_t>(page[off + i]) << (8 * i);
    return value;
}

void
MemImage::write(Addr addr, std::uint64_t value, unsigned size)
{
    assert(size == 1 || size == 2 || size == 4 || size == 8);
    assert((addr & (size - 1)) == 0 && "unaligned access");
    std::uint8_t *page = lookupWrite(pageOf(addr));
    const std::size_t off = offsetOf(addr);
    for (unsigned i = 0; i < size; ++i)
        page[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

} // namespace rbsim
