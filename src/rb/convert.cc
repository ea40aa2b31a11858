#include "rb/convert.hh"

namespace rbsim
{

Word
rbToTcRipple(const RbNum &x)
{
    const std::uint64_t p = x.plus();
    const std::uint64_t m = x.minus();
    std::uint64_t result = 0;
    unsigned borrow = 0;
    for (unsigned i = 0; i < 64; ++i) {
        const unsigned a = (p >> i) & 1;
        const unsigned b = (m >> i) & 1;
        const unsigned diff = a ^ b ^ borrow;
        borrow = ((a ^ 1u) & (b | borrow)) | (b & borrow);
        result |= static_cast<std::uint64_t>(diff) << i;
    }
    return result;
}

} // namespace rbsim
