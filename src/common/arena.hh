/**
 * @file
 * Fixed-footprint containers for the simulator's issue/completion hot
 * paths, replacing node- and block-allocating standard containers so
 * the steady state performs no heap traffic at all:
 *
 *  - RingDeque<T>: a bounded deque over one contiguous ring buffer,
 *    covering the operations the memory-controller request queues use
 *    (push_back / push_front / random access / middle erase by index).
 *    Capacity is fixed at construction — the controller already
 *    enforces the queue caps — so elements never move between blocks
 *    and nothing allocates after construction. erase() shifts
 *    whichever side of the hole is shorter, preserving order exactly
 *    like std::deque::erase.
 *
 *  - FreeListArena<T>: an index-addressed object pool with an
 *    intrusive free list. alloc() returns a stable std::int32_t handle
 *    (indices survive pool growth; pointers would not), release()
 *    recycles it. Used for the LLC's MSHR waiter chains, whose
 *    per-miss std::vector allocations were the last allocator traffic
 *    on the miss path.
 */

#ifndef DAPPER_COMMON_ARENA_HH
#define DAPPER_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.hh"

namespace dapper {

template <typename T>
class RingDeque
{
  public:
    /** Holds at most @p capacity elements (rounded up to a power of
     *  two internally; the stated bound is what callers may rely on). */
    explicit RingDeque(std::size_t capacity)
    {
        std::size_t cap = 16;
        while (cap < capacity)
            cap <<= 1;
        mask_ = cap - 1;
        buf_.resize(cap);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    void
    push_back(const T &v)
    {
        DAPPER_CHECK(size_ <= mask_, "RingDeque: full");
        buf_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    void
    push_front(const T &v)
    {
        DAPPER_CHECK(size_ <= mask_, "RingDeque: full");
        head_ = (head_ + mask_) & mask_;
        buf_[head_] = v;
        ++size_;
    }

    /** Remove the element at index @p i; order is preserved (the
     *  shorter side of the hole is shifted), as std::deque::erase. */
    void
    erase(std::size_t i)
    {
        if (i < size_ - 1 - i) {
            for (std::size_t j = i; j > 0; --j)
                (*this)[j] = std::move((*this)[j - 1]);
            head_ = (head_ + 1) & mask_;
        } else {
            for (std::size_t j = i; j + 1 < size_; ++j)
                (*this)[j] = std::move((*this)[j + 1]);
        }
        --size_;
    }

  private:
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::vector<T> buf_;
};

template <typename T>
class FreeListArena
{
  public:
    static constexpr std::int32_t kNone = -1;

    explicit FreeListArena(std::size_t reserve = 0)
    {
        pool_.reserve(reserve);
        nextFree_.reserve(reserve);
    }

    /** Stable handle to a slot holding a copy of @p value. */
    std::int32_t
    alloc(const T &value)
    {
        if (freeHead_ != kNone) {
            const std::int32_t i = freeHead_;
            freeHead_ = nextFree_[static_cast<std::size_t>(i)];
            pool_[static_cast<std::size_t>(i)] = value;
            return i;
        }
        pool_.push_back(value);
        nextFree_.push_back(kNone);
        return static_cast<std::int32_t>(pool_.size() - 1);
    }

    /** Recycle @p i; the slot may be handed out again immediately. */
    void
    release(std::int32_t i)
    {
        nextFree_[static_cast<std::size_t>(i)] = freeHead_;
        freeHead_ = i;
    }

    T &at(std::int32_t i) { return pool_[static_cast<std::size_t>(i)]; }
    const T &at(std::int32_t i) const
    {
        return pool_[static_cast<std::size_t>(i)];
    }

  private:
    std::vector<T> pool_;
    std::vector<std::int32_t> nextFree_; ///< Free-list links per slot.
    std::int32_t freeHead_ = kNone;
};

} // namespace dapper

#endif // DAPPER_COMMON_ARENA_HH
