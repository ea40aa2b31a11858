#include "common/alloccount.hh"

namespace rbsim::alloccount
{

namespace detail
{
thread_local std::uint64_t t_allocs = 0;
bool g_hooked = false;
bool g_enabled = false;
} // namespace detail

bool
hooked()
{
    return detail::g_hooked;
}

void
enable(bool on)
{
    detail::g_enabled = on;
}

bool
enabled()
{
    return detail::g_enabled;
}

std::uint64_t
threadCount()
{
    return detail::t_allocs;
}

void
markHooked()
{
    detail::g_hooked = true;
}

} // namespace rbsim::alloccount
