/**
 * @file
 * In-order reorder buffer for the decoupled prefetching architecture
 * (Sec. IV-A).  Entries are allocated in program order when a miss is
 * sent to memory; each entry is marked ready when its memory block
 * returns; the head entry may only be consumed once ready.  This is
 * what prevents younger blocks from evicting older yet-to-be-used
 * cache lines in the paper's design.
 */

#ifndef ASR_SIM_REORDER_BUFFER_HH
#define ASR_SIM_REORDER_BUFFER_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"

namespace asr::sim {

/**
 * Circular in-order buffer.  @tparam T payload stored per entry.
 * Indices returned by allocate() stay valid until release of the head.
 */
template <typename T>
class ReorderBuffer
{
  public:
    explicit ReorderBuffer(std::size_t capacity)
        : entries(capacity), head(0), tail(0), count(0)
    {
        ASR_ASSERT(capacity > 0, "ROB capacity must be positive");
    }

    bool full() const { return count >= entries.size(); }
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return entries.size(); }

    /** Allocate the next entry in order; @return its slot index. */
    std::size_t
    allocate(T payload)
    {
        ASR_ASSERT(!full(), "allocate on full ROB");
        std::size_t slot = tail;
        entries[slot].payload = std::move(payload);
        entries[slot].ready = false;
        entries[slot].live = true;
        if (++tail == entries.size())
            tail = 0;
        ++count;
        return slot;
    }

    /** Mark slot @p slot ready (its memory block arrived). */
    void
    markReady(std::size_t slot)
    {
        ASR_ASSERT(slot < entries.size() && entries[slot].live,
                   "markReady on dead ROB slot");
        entries[slot].ready = true;
    }

    /** @return true when the oldest entry exists and is ready. */
    bool
    headReady() const
    {
        return count > 0 && entries[head].ready;
    }

    /** Payload of the oldest entry. */
    const T &
    headPayload() const
    {
        ASR_ASSERT(count > 0, "head of empty ROB");
        return entries[head].payload;
    }

    /** Release the oldest entry (must be ready). */
    T
    releaseHead()
    {
        ASR_ASSERT(headReady(), "release of non-ready ROB head");
        T payload = std::move(entries[head].payload);
        entries[head].live = false;
        if (++head == entries.size())
            head = 0;
        --count;
        return payload;
    }

    void
    clear()
    {
        for (auto &e : entries)
            e.live = false;
        head = tail = count = 0;
    }

  private:
    struct Entry
    {
        T payload{};
        bool ready = false;
        bool live = false;
    };

    std::vector<Entry> entries;
    std::size_t head;
    std::size_t tail;
    std::size_t count;
};

} // namespace asr::sim

#endif // ASR_SIM_REORDER_BUFFER_HH
