/**
 * @file
 * Fixed-capacity power-of-two ring buffer for the per-cycle hot path.
 *
 * The core's in-order pipeline queues (front pipe, ROB, LSQ) used to
 * live in std::deque, whose segmented storage allocates and frees nodes
 * as the queue breathes. StaticRing allocates once at init() and never
 * again: positions are monotonically increasing virtual indices, the
 * slot of position p is p & mask, and push/pop are index arithmetic.
 * Elements must be assignable; popped slots keep their (dead) objects,
 * which is fine for the trivially-copyable entry types used here.
 */

#ifndef RBSIM_COMMON_RING_HH
#define RBSIM_COMMON_RING_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rbsim
{

template <class T>
class StaticRing
{
  public:
    StaticRing() = default;

    explicit StaticRing(std::size_t min_capacity) { init(min_capacity); }

    /** Size storage for at least `min_capacity` elements (rounded up to
     * a power of two). Resets the ring. */
    void
    init(std::size_t min_capacity)
    {
        const std::size_t cap =
            std::bit_ceil(min_capacity ? min_capacity : 1);
        slots.assign(cap, T{});
        mask = cap - 1;
        headPos = tailPos = 0;
    }

    bool empty() const { return headPos == tailPos; }
    std::size_t size() const
    { return static_cast<std::size_t>(tailPos - headPos); }
    std::size_t capacity() const { return slots.size(); }
    bool full() const { return size() == capacity(); }

    void
    push_back(const T &v)
    {
        assert(!full());
        slots[tailPos++ & mask] = v;
    }

    /** Append a slot and return it for the caller to fill in place
     * (spares a copy of large elements). It still holds whatever
     * element last occupied it: overwrite every field. */
    T &
    push_back_slot()
    {
        assert(!full());
        return slots[tailPos++ & mask];
    }

    T &front()
    {
        assert(!empty());
        return slots[headPos & mask];
    }
    const T &front() const
    {
        assert(!empty());
        return slots[headPos & mask];
    }
    T &back()
    {
        assert(!empty());
        return slots[(tailPos - 1) & mask];
    }
    const T &back() const
    {
        assert(!empty());
        return slots[(tailPos - 1) & mask];
    }

    /** Element i positions past the front. */
    T &operator[](std::size_t i)
    {
        assert(i < size());
        return slots[(headPos + i) & mask];
    }
    const T &operator[](std::size_t i) const
    {
        assert(i < size());
        return slots[(headPos + i) & mask];
    }

    void
    pop_front()
    {
        assert(!empty());
        ++headPos;
    }

    void
    pop_back()
    {
        assert(!empty());
        --tailPos;
    }

    void clear() { headPos = tailPos; }

  private:
    std::vector<T> slots;
    std::uint64_t mask = 0;
    std::uint64_t headPos = 0;
    std::uint64_t tailPos = 0;
};

} // namespace rbsim

#endif // RBSIM_COMMON_RING_HH
