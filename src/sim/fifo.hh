/**
 * @file
 * Bounded FIFO used to model hardware queues (Arc FIFO, Request FIFO,
 * inter-stage buffers).
 */

#ifndef ASR_SIM_FIFO_HH
#define ASR_SIM_FIFO_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace asr::sim {

/**
 * A capacity-bounded FIFO on a fixed ring: push and pop are O(1) and
 * never allocate after construction.  push() on a full queue and
 * pop() on an empty queue are simulator bugs and panic.
 *
 * @tparam T default-constructible payload; popped or cleared slots
 *           keep their old value until a push overwrites them
 */
template <typename T>
class Fifo
{
  public:
    explicit Fifo(std::size_t capacity) : items(capacity), cap(capacity)
    {
        ASR_ASSERT(capacity > 0, "FIFO capacity must be positive");
    }

    bool full() const { return count == cap; }
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return cap; }
    std::size_t freeSlots() const { return cap - count; }

    void
    push(T item)
    {
        ASR_ASSERT(!full(), "push to full FIFO");
        std::size_t tail = head + count;
        if (tail >= cap)
            tail -= cap;
        items[tail] = std::move(item);
        ++count;
    }

    T &
    front()
    {
        ASR_ASSERT(!empty(), "front of empty FIFO");
        return items[head];
    }

    const T &
    front() const
    {
        ASR_ASSERT(!empty(), "front of empty FIFO");
        return items[head];
    }

    T
    pop()
    {
        ASR_ASSERT(!empty(), "pop of empty FIFO");
        T item = std::move(items[head]);
        if (++head == cap)
            head = 0;
        --count;
        return item;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    std::vector<T> items;
    std::size_t cap;
    std::size_t head = 0;   //!< ring index of the oldest item
    std::size_t count = 0;
};

} // namespace asr::sim

#endif // ASR_SIM_FIFO_HH
