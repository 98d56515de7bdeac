/**
 * @file
 * The token hash table of the accelerator (Sec. III-B).
 *
 * Two instances track the active tokens of the current and the next
 * frame.  Each entry stores the WFST state index, the best likelihood
 * of reaching it this frame and the location of its backpointer
 * record in main memory; entries are threaded on a single linked list
 * in insertion order so the State Issuer can iterate all tokens.
 *
 * Collisions chain into an on-chip backup buffer; when the backup
 * buffer is exhausted, new collisions spill into the off-chip
 * Overflow Buffer (each such hop costs a DRAM access).  The model is
 * functional *and* returns the per-request cycle cost the pipeline
 * model charges (1 cycle + 1 per chain hop, DRAM for overflow hops),
 * which is what Figure 5 sweeps.
 */

#ifndef ASR_ACCEL_HASH_TABLE_HH
#define ASR_ACCEL_HASH_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/compiler.hh"
#include "common/logging.hh"
#include "wfst/types.hh"

namespace asr::accel {

/** Aggregate hash statistics across a run (Figure 5 numbers). */
struct HashStats
{
    std::uint64_t requests = 0;
    std::uint64_t cycles = 0;          //!< total cycles incl. chains
    std::uint64_t collisionWalks = 0;  //!< requests that walked chains
    std::uint64_t overflowHops = 0;    //!< chain hops in DRAM
    std::uint64_t maxChain = 0;

    double
    avgCyclesPerRequest() const
    {
        return requests ? double(cycles) / double(requests) : 0.0;
    }
};

/** A token as the hash reports it (from any slot kind). */
struct TokenSlot
{
    wfst::StateId state = wfst::kNoState;
    wfst::LogProb score = wfst::kLogZero;
    std::uint32_t backpointer = 0;  //!< token-trace record index
    bool pending = false;  //!< queued on the live list, not yet read
};

/** The hash table model. */
class TokenHash
{
  public:
    /**
     * @param entries        primary buckets (power of two)
     * @param backup_entries on-chip collision slots
     * @param ideal          ablation: every request costs one cycle
     */
    TokenHash(unsigned entries, unsigned backup_entries, bool ideal);

    /** Outcome of an upsert. */
    struct UpsertResult
    {
        bool isNew = false;     //!< token created
        bool improved = false;  //!< score replaced (or created)
        unsigned cycles = 1;    //!< request occupancy in cycles
        unsigned overflowHops = 0;  //!< DRAM accesses for the chain
    };

    /**
     * Insert-or-improve the token for @p state: keeps the maximum
     * score (strict improvement), updating the backpointer record
     * index when improved.
     *
     * Queueing discipline for the State Issuer's walk: a new token
     * is appended to the live list in pending state; an improvement
     * of a token that has already been read re-appends it (so the
     * better score gets expanded); an improvement of a still-pending
     * token leaves the list alone (the upcoming read sees the newer
     * score).  This is how epsilon-created tokens re-enter the
     * current frame's processing (Sec. II: epsilon arcs consume no
     * frame of speech).
     */
    UpsertResult upsert(wfst::StateId state, wfst::LogProb score,
                        std::uint32_t backpointer);

    /** Live-list length (grows during a frame via re-appends). */
    std::size_t size() const { return liveList.size(); }

    /** Number of distinct tokens (hash entries). */
    std::size_t distinctTokens() const { return distinct; }

    /** Token @p i in insertion order (the State Issuer's walk). */
    TokenSlot
    token(std::size_t i) const
    {
        ASR_ASSERT(i < liveList.size(), "token index %zu out of range", i);
        return tokenOf(slotAt(liveList[i]));
    }

    /** Read token @p i for processing, clearing its pending flag. */
    TokenSlot
    readForProcess(std::size_t i)
    {
        ASR_ASSERT(i < liveList.size(), "token index %zu out of range", i);
        Slot &slot = slotAt(liveList[i]);
        slot.link &= kLinkMask;
        return tokenOf(slot);
    }

    /** Hint: pull token @p i's entry toward the core. */
    void
    prefetchToken(std::size_t i) const
    {
        ASR_PREFETCH(&slotAt(liveList[i]));
    }

    /** Hint: pull the primary bucket of @p state toward the core. */
    void
    prefetchBucket(wfst::StateId state) const
    {
        ASR_PREFETCH(&slots[bucketOf(state)]);
    }

    /** Best score among live tokens (the frame's pruning anchor). */
    wfst::LogProb bestScore() const { return best; }

    /**
     * Clear all tokens (frame swap).  Empties the primary buckets the
     * live list names, so it costs one store per live-list entry.
     */
    void clear();

    /** Occupied overflow slots in the current frame. */
    std::size_t overflowSize() const { return slots.size() - onChip; }

    const HashStats &stats() const { return stats_; }
    void clearStats() { stats_ = HashStats(); }

    unsigned numEntries() const { return numPrimary; }

  private:
    /**
     * One hash entry (16 B).  A primary bucket is empty when its state
     * is kNoState.  @c link holds the next slot of the collision chain
     * (0 = end of chain, see slotAt()) in its low bits and the pending
     * flag in its top bit.
     */
    struct Slot
    {
        wfst::StateId state = wfst::kNoState;
        wfst::LogProb score = wfst::kLogZero;
        std::uint32_t backpointer = 0;
        std::uint32_t link = 0;
    };

    static constexpr std::uint32_t kPending = 0x80000000u;
    static constexpr std::uint32_t kLinkMask = kPending - 1;

    unsigned
    bucketOf(wfst::StateId state) const
    {
        // Multiplicative hashing (Knuth): cheap in hardware, spreads
        // the low-entropy state ids produced by the sorted layout.
        return unsigned((state * 2654435761u) >> 8) & mask;
    }

    /** Slot behind a non-zero link: slots[link - 1]. */
    Slot &slotAt(std::uint32_t link) { return slots[link - 1]; }
    const Slot &slotAt(std::uint32_t link) const { return slots[link - 1]; }

    static TokenSlot
    tokenOf(const Slot &slot)
    {
        return TokenSlot{slot.state, slot.score, slot.backpointer,
                         (slot.link & kPending) != 0};
    }

    /**
     * Primary buckets, then the on-chip backup buffer, then the
     * off-chip overflow buffer, which grows on demand and shrinks
     * back on clear().  A link is a slot index plus one.
     */
    std::vector<Slot> slots;
    std::uint32_t numPrimary;
    std::uint32_t onChip;          //!< primary + backup slots
    std::uint32_t backupUsed = 0;
    std::size_t distinct = 0;
    bool ideal;
    unsigned mask;
    wfst::LogProb best = wfst::kLogZero;

    /** Live tokens in insertion order, as slot links. */
    std::vector<std::uint32_t> liveList;

    HashStats stats_;
};

// Inline: the search calls it once per arc, and returning the result
// through a call would round-trip it through the stack.
ASR_ALWAYS_INLINE TokenHash::UpsertResult
TokenHash::upsert(wfst::StateId state, wfst::LogProb score,
                  std::uint32_t backpointer)
{
    UpsertResult result;
    ++stats_.requests;

    const unsigned bucket = bucketOf(state);
    const std::uint32_t head_link = bucket + 1;
    Slot &head = slotAt(head_link);

    auto improve = [&](Slot &slot, std::uint32_t link) {
        if (score > slot.score) {
            slot.score = score;
            slot.backpointer = backpointer;
            result.improved = true;
            best = std::max(best, score);
            if (!(slot.link & kPending)) {
                // Already read this frame: requeue so the improved
                // score gets expanded too.
                slot.link |= kPending;
                liveList.push_back(link);
            }
        }
    };

    unsigned chain = 0;
    if (head.state == wfst::kNoState) {
        // Empty bucket: claim it.
        head = Slot{state, score, backpointer, kPending};
        liveList.push_back(head_link);
        ++distinct;
        result.isNew = true;
        result.improved = true;
        best = std::max(best, score);
    } else if (head.state == state) {
        improve(head, head_link);
    } else {
        // Walk the collision chain.
        ++stats_.collisionWalks;
        std::uint32_t prev = head_link;
        std::uint32_t cur = head.link & kLinkMask;
        bool done = false;
        while (cur != 0) {
            ++chain;
            if (cur > onChip)
                ++result.overflowHops;
            Slot &slot = slotAt(cur);
            if (slot.state == state) {
                improve(slot, cur);
                done = true;
                break;
            }
            prev = cur;
            cur = slot.link & kLinkMask;
        }
        if (!done) {
            // Append a new collision slot: backup buffer first, then
            // the off-chip overflow buffer.
            ++chain;
            const Slot fresh{state, score, backpointer, kPending};
            std::uint32_t link;
            if (onChip - numPrimary > backupUsed) {
                link = numPrimary + backupUsed + 1;
                slotAt(link) = fresh;
                ++backupUsed;
            } else {
                ASR_ASSERT(slots.size() < kLinkMask,
                           "overflow buffer exceeds the slot links");
                slots.push_back(fresh);
                link = std::uint32_t(slots.size());
                ++result.overflowHops;
            }
            slotAt(prev).link |= link;
            liveList.push_back(link);
            ++distinct;
            result.isNew = true;
            result.improved = true;
            best = std::max(best, score);
        }
    }

    result.cycles = ideal ? 1 : 1 + chain;
    stats_.cycles += result.cycles;
    stats_.overflowHops += result.overflowHops;
    stats_.maxChain = std::max<std::uint64_t>(stats_.maxChain, chain);
    if (ideal)
        result.overflowHops = 0;
    return result;
}

} // namespace asr::accel

#endif // ASR_ACCEL_HASH_TABLE_HH
