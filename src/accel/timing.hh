/**
 * @file
 * Cycle-accurate replay of a FrameTrace through the accelerator's
 * five-stage pipeline (Sec. III-B) and memory system.
 *
 * The model advances one clock at a time; each cycle the stages tick
 * from the back of the pipeline to the front so an item never moves
 * through two stages in one cycle.  The only stall sources are the
 * paper's two: cache misses and hash collisions (plus the structural
 * limits of Table I: 8 in-flight states, 8/64 in-flight arcs, 32
 * in-flight token writes, 32 in-flight memory requests, one memory
 * request accepted per cycle).
 *
 * With cfg.prefetchEnabled the Arc Issuer uses the decoupled
 * access/execute architecture of Sec. IV-A: tags are probed and
 * updated at issue, misses enter the Request FIFO, returning blocks
 * land in the Reorder Buffer, and an arc leaves the 64-entry Arc
 * FIFO head only once its block is available -- younger blocks can
 * never displace older yet-to-be-used ones because release is in
 * order.  Without prefetching the identical machinery runs with the
 * baseline's 8-entry window, which is what Table I's "8 in-flight
 * arcs" provides.
 *
 * Host cost.  Almost every simulated cycle has a stage acting or a
 * stall to count, so the model does not skip cycles; instead a cycle
 * costs bounded work whatever is in flight.  Every queue is a fixed
 * ring.  Because sim::Dram completes requests in issue order, token
 * fills and arc requests wait in issue-order rings polled only at
 * their heads, and the State Issuer walks its window only when a
 * fetch can have returned or a fetch waits for a DRAM slot.  The Arc
 * Issuer probes the arc cache only when a miss could not be tracked.
 */

#ifndef ASR_ACCEL_TIMING_HH
#define ASR_ACCEL_TIMING_HH

#include <cstdint>
#include <vector>

#include "accel/config.hh"
#include "accel/trace.hh"
#include "sim/cache.hh"
#include "sim/dram.hh"
#include "sim/fifo.hh"
#include "sim/reorder_buffer.hh"

namespace asr::accel {

/** Stall-cycle counters (coarse attribution). */
struct StallStats
{
    std::uint64_t stateFetch = 0;  //!< State Issuer head waiting on DRAM
    std::uint64_t arcData = 0;     //!< Arc FIFO head block not arrived
    std::uint64_t hashBusy = 0;    //!< hash chain walk blocking access
    std::uint64_t tokenFill = 0;   //!< token write window exhausted
};

/** The pipeline/memory timing model. */
class TimingEngine
{
  public:
    explicit TimingEngine(const AcceleratorConfig &cfg);

    /**
     * Replay one frame's trace.
     * @return cycles consumed by this frame (including any wait for
     *         the acoustic DMA double buffer)
     */
    Cycles replayFrame(const FrameTrace &trace);

    /** Wait for straggling token-write fills (utterance end). */
    Cycles drain();

    /** Current absolute cycle. */
    Cycles now() const { return now_; }

    const sim::Cache &stateCache() const { return stateCache_; }
    const sim::Cache &arcCache() const { return arcCache_; }
    const sim::Cache &tokenCache() const { return tokenCache_; }
    const sim::Dram &dram() const { return dram_; }
    const StallStats &stalls() const { return stalls_; }

    /** Reset statistics and cycle counters (not cache contents). */
    void clearStats();

    /** Invalidate caches (cold-start experiments). */
    void invalidateCaches();

  private:
    static constexpr Cycles kNever = ~Cycles(0);

    /** Arcs ahead of the Arc Issuer whose tag sets are prefetched. */
    static constexpr std::uint32_t kArcTagLookahead = 8;

    // ---- pipeline bookkeeping types ----

    /** Where a State Issuer entry stands. */
    enum class StatePhase : std::uint8_t {
        Waiting,   //!< state fetch missed, DRAM issue not accepted yet
        Fetching,  //!< state fetch in DRAM
        Ready,     //!< arc range known
    };

    /** State Issuer in-flight entry (one token's state). */
    struct StateFlight
    {
        std::uint32_t tokenOpIdx;
        std::uint32_t arcOpBegin;
        std::uint32_t arcOpCount;
        sim::RequestId req;     //!< valid while Fetching
        StatePhase phase;
    };

    /** An issued DRAM request and the cycle its data returns. */
    struct Issued
    {
        sim::RequestId req;
        Cycles readyAt;
    };

    /** Arc FIFO entry. */
    struct ArcFlight
    {
        std::uint32_t arcOpIdx;
        bool missed;            //!< its block arrives through the ROB
        bool needsAcoustic;     //!< emitting arc: uses the acoustic issuer
    };

    /** Issued arc memory request, kept in issue order. */
    struct ArcRequest
    {
        Issued mem;
        std::uint32_t robSlot;
    };

    /** Request FIFO entry awaiting a memory-controller slot. */
    struct PendingArcRequest
    {
        sim::Addr addr;
        std::uint32_t robSlot;
    };

    /** The @p k-th oldest State Issuer entry. */
    StateFlight &
    stateAt(unsigned k)
    {
        const unsigned i = stateHead + k;
        return stateWindow[i < cfg.stateIssuerInflight
                               ? i
                               : i - cfg.stateIssuerInflight];
    }

    void tickTokenIssuer(const FrameTrace &trace);
    void tickArcRelease();
    void tickArcIssue(const FrameTrace &trace);
    void tickStateIssuer(const FrameTrace &trace);
    bool frameDone() const;
    void pollTokenFills();

    AcceleratorConfig cfg;
    sim::Cache stateCache_;
    sim::Cache arcCache_;
    sim::Cache tokenCache_;
    sim::Dram dram_;
    StallStats stalls_;

    Cycles now_ = 0;
    Cycles dmaReadyAt = 0;
    /** Write-port busy times: current-frame and next-frame hash.
     *  Epsilon arcs write the current hash (their tokens belong to
     *  the same frame); emitting arcs write the next hash.  Token
     *  reads at the State Issuer wait for the current hash's write
     *  port to be free (collision chains block the table). */
    Cycles hashCurFreeAt = 0;
    Cycles hashNextFreeAt = 0;
    /** Single in-flight arc at the Acoustic-likelihood Issuer. */
    Cycles acousticFreeAt = 0;

    // Per-frame cursors and queues (reset in replayFrame).  Every
    // queue is a fixed ring sized by the structure it models; DRAM
    // completions are polled at the head of an issue-order ring (see
    // sim::Dram), so a cycle's bookkeeping does not grow with what is
    // in flight.
    std::uint32_t tokenCursor = 0;
    std::uint32_t numTokenOps = 0;          //!< of the frame replayed
    /** Ring of stateIssuerInflight entries, in intake order. */
    std::vector<StateFlight> stateWindow;
    unsigned stateHead = 0;         //!< ring index of the oldest
    unsigned stateCount = 0;
    unsigned stateWaiting = 0;      //!< window entries Waiting
    unsigned stateReady = 0;        //!< window entries Ready
    /** Earliest completion among Fetching entries. */
    Cycles stateNextReady = kNever;
    sim::Fifo<std::pair<std::uint32_t, std::uint32_t>> arcWorkQ;
    std::uint32_t arcCursor = 0;            //!< offset in front range
    sim::Fifo<ArcFlight> arcFifo;
    sim::Fifo<PendingArcRequest> requestQ;
    sim::ReorderBuffer<std::uint32_t> rob;  //!< payload: arcOpIdx
    sim::Fifo<ArcRequest> arcOutstanding;
    sim::Fifo<std::uint32_t> evalQ;         //!< arcOpIdx stream

    // Token-write fills outlive frames; drain() waits for them.
    sim::Fifo<Issued> tokenFills;           //!< issue order
    sim::Fifo<sim::Addr> tokenFillsWaiting; //!< DRAM issue not accepted
};

} // namespace asr::accel

#endif // ASR_ACCEL_TIMING_HH
