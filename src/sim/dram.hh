/**
 * @file
 * Off-chip DRAM / memory-controller model.
 *
 * Matches the paper's evaluation setup (Sec. V): a fixed access
 * latency of 50 cycles at the accelerator's 600 MHz clock, a memory
 * controller that sustains a bounded number of in-flight requests
 * (Table I: 32), and per-data-class traffic accounting that feeds the
 * Figure 13 bandwidth breakdown.
 */

#ifndef ASR_SIM_DRAM_HH
#define ASR_SIM_DRAM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "sim/types.hh"

namespace asr::sim {

/** Configuration of the DRAM + memory controller model. */
struct DramConfig
{
    Cycles latency = 50;        //!< access latency in accelerator cycles
    unsigned maxInflight = 32;  //!< memory controller in-flight requests
    unsigned issuePerCycle = 1; //!< new requests accepted per cycle
    Bytes lineBytes = 64;       //!< transfer granularity
};

/** Per-class traffic statistics (bytes and request counts). */
struct DramStats
{
    std::array<std::uint64_t, kNumDataClasses> readBytes{};
    std::array<std::uint64_t, kNumDataClasses> writeBytes{};
    std::array<std::uint64_t, kNumDataClasses> requests{};
    std::uint64_t rejectedIssues = 0;  //!< issue attempts that had to retry

    std::uint64_t totalReadBytes() const;
    std::uint64_t totalWriteBytes() const;
    std::uint64_t totalBytes() const;
    std::uint64_t totalRequests() const;
    std::uint64_t bytesForClass(DataClass cls) const;
};

/**
 * The DRAM model.  Usage per cycle:
 *
 *   if (auto id = dram.issue(addr, cls, write, now); id != kNoRequest)
 *       ... remember id ...
 *   ...
 *   if (dram.ready(id, now)) { dram.retire(id); ... }
 *
 * issue() returns kNoRequest when the controller is saturated (either
 * the in-flight window is full or this cycle's issue slots are used),
 * in which case the caller must retry on a later cycle.
 *
 * Completions come back in issue order.  Every request takes the same
 * fixed latency, so as long as the cycles passed to issue() never
 * decrease, readyAt() never decreases from one issued request to the
 * next.  A client may therefore keep its outstanding requests in an
 * issue-order FIFO and poll only the head: once the head is not
 * ready, no younger request is.  The accelerator's timing engine
 * relies on this.
 *
 * Request ids are slot numbers in [0, maxInflight); a retired id is
 * handed out again by a later issue().  issue() takes a free slot in
 * O(1).
 */
class Dram
{
  public:
    explicit Dram(const DramConfig &config);

    /**
     * Try to issue a line-sized request.
     * @return the request id, or kNoRequest when rejected this cycle.
     */
    RequestId issue(Addr addr, DataClass cls, bool write, Cycles now);

    /** @return true when request @p id has completed by cycle @p now. */
    bool ready(RequestId id, Cycles now) const;

    /** Completion cycle of request @p id. */
    Cycles readyAt(RequestId id) const;

    /** Release the slot held by @p id. */
    void retire(RequestId id);

    /** Number of requests currently outstanding. */
    unsigned inflight() const { return inflightCount; }

    /** Accounting-only write (used for fire-and-forget writebacks). */
    void
    countWrite(DataClass cls, Bytes bytes)
    {
        const auto c = static_cast<unsigned>(cls);
        stats_.writeBytes[c] += bytes;
        ++stats_.requests[c];
    }

    /** Accounting-only read (used for DMA-style bulk transfers). */
    void
    countRead(DataClass cls, Bytes bytes)
    {
        const auto c = static_cast<unsigned>(cls);
        stats_.readBytes[c] += bytes;
        ++stats_.requests[c];
    }

    const DramConfig &config() const { return cfg; }
    const DramStats &stats() const { return stats_; }
    void clearStats() { stats_ = DramStats(); }

  private:
    struct Slot
    {
        Cycles readyCycle = 0;
        bool busy = false;
    };

    DramConfig cfg;
    std::vector<Slot> slots;
    /** Idle slot ids: a stack of maxInflight - inflightCount ids. */
    std::vector<RequestId> freeIds;
    unsigned inflightCount = 0;
    Cycles lastIssueCycle = 0;
    unsigned issuedThisCycle = 0;
    DramStats stats_;
};

// The per-request calls run several times per simulated cycle, so
// they are defined here where the timing engine can inline them.

inline RequestId
Dram::issue(Addr addr, DataClass cls, bool write, Cycles now)
{
    (void)addr;  // a fixed-latency model does not need the address

    if (now != lastIssueCycle) {
        lastIssueCycle = now;
        issuedThisCycle = 0;
    }
    if (issuedThisCycle >= cfg.issuePerCycle ||
        inflightCount >= cfg.maxInflight) {
        ++stats_.rejectedIssues;
        return kNoRequest;
    }

    const RequestId id = freeIds[cfg.maxInflight - 1 - inflightCount];
    ASR_ASSERT(!slots[id].busy, "slot bookkeeping out of sync");
    slots[id].busy = true;
    slots[id].readyCycle = now + cfg.latency;
    ++inflightCount;
    ++issuedThisCycle;

    const auto c = static_cast<unsigned>(cls);
    ++stats_.requests[c];
    if (write)
        stats_.writeBytes[c] += cfg.lineBytes;
    else
        stats_.readBytes[c] += cfg.lineBytes;
    return id;
}

inline bool
Dram::ready(RequestId id, Cycles now) const
{
    return now >= readyAt(id);
}

inline Cycles
Dram::readyAt(RequestId id) const
{
    ASR_ASSERT(id < slots.size() && slots[id].busy,
               "query for invalid request id %u", id);
    return slots[id].readyCycle;
}

inline void
Dram::retire(RequestId id)
{
    ASR_ASSERT(id < slots.size() && slots[id].busy,
               "retire of invalid request id %u", id);
    ASR_ASSERT(inflightCount > 0, "in-flight underflow");
    slots[id].busy = false;
    --inflightCount;
    freeIds[cfg.maxInflight - 1 - inflightCount] = id;
}

} // namespace asr::sim

#endif // ASR_SIM_DRAM_HH
