/**
 * @file
 * The functional expansion core of the accelerator: performs the
 * Viterbi beam search in exactly the order the hardware pipeline
 * processes it and records the micro-operation trace for the timing
 * model.
 *
 * Frame processing mirrors Sec. III-B.  The State Issuer walks the
 * current-frame hash's token list and prunes against the frame's
 * threshold (best minus beam, optionally raised by histogram
 * pruning).  For each survivor the state's full outgoing arc range
 * is resolved -- via a state fetch, or via the Sec. IV-B comparator
 * network on the sorted layout -- and all its arcs flow down the
 * pipeline:
 *
 *  - non-epsilon arcs combine with the current frame's acoustic
 *    score and write tokens into the *next*-frame hash;
 *  - epsilon arcs (stored after the non-epsilon arcs of the same
 *    state, so they arrive in the same fetch) consume no frame of
 *    speech: they write tokens back into the *current*-frame hash,
 *    whose live list re-queues them for the same pass.  A strict
 *    improvement test bounds the traversal.
 *
 * This interleaved epsilon handling matches the paper's pipeline
 * (which has no separate epsilon stage) and shares the state fetch
 * and the arc cache lines between emitting and epsilon expansion.
 * After the last frame a closure-only pass resolves epsilon arcs of
 * the final frame before the best token is selected.
 */

#ifndef ASR_ACCEL_EXPAND_HH
#define ASR_ACCEL_EXPAND_HH

#include <span>
#include <vector>

#include "accel/config.hh"
#include "accel/hash_table.hh"
#include "accel/trace.hh"
#include "acoustic/likelihoods.hh"
#include "decoder/result.hh"
#include "wfst/sorted.hh"
#include "wfst/wfst.hh"

namespace asr::accel {

/** Functional expansion engine (one utterance at a time). */
class Expander
{
  public:
    /**
     * @param net    the recognition network in accelerator layout
     * @param sorted non-null iff the bandwidth technique is enabled;
     *               must wrap the same transducer as @p net
     */
    Expander(const wfst::Wfst &net, const wfst::SortedWfst *sorted,
             const AcceleratorConfig &cfg);

    /** Reset all per-utterance state and seed the initial token. */
    void beginUtterance();

    /** Expand one frame; @p scores indexed by phoneme id. */
    void expandFrame(std::span<const float> scores, FrameTrace &trace);

    /**
     * Epsilon-close the final frame's tokens (no pruning, no
     * acoustic scores).  Must run after the last expandFrame and
     * before finish(); emits the closing pass's trace.
     */
    void finalClosure(FrameTrace &trace);

    /** Backtrack the best token into the final DecodeResult. */
    decoder::DecodeResult finish();

    /** Per-state expansion counts (Figure 7 dynamic CDF). */
    const std::vector<std::uint64_t> &
    visitCounts() const
    {
        return visits;
    }

    /** Combined hash statistics of both tables. */
    HashStats hashStats() const;

    /** Workload counters accumulated so far. */
    const decoder::DecodeStats &workload() const { return stats; }

    /** Backpointer records written so far (token-trace length). */
    std::uint64_t tokenRecords() const { return arena.size(); }

    /** Count of states resolved without a state fetch. */
    std::uint64_t directStates() const { return directCount; }

    /** Count of state-entry fetches. */
    std::uint64_t stateFetches() const { return fetchCount; }

  private:
    /** Token-trace record (8 B in the accelerator's memory map). */
    struct BackRecord
    {
        std::uint32_t prev;   //!< previous record, kNoRecord at start
        wfst::WordId word;
    };

    static constexpr std::uint32_t kNoRecord = 0xffffffffu;

    /** Resolved arc range of a state. */
    struct ArcRange
    {
        bool direct;
        wfst::ArcId first;
        std::uint32_t count;
        std::uint32_t numNonEps;  //!< only valid when !direct
    };

    ArcRange resolveState(wfst::StateId s, TokenOp &op);

    /** Arc range of a state, read without touching the trace. */
    struct ArcSpan
    {
        wfst::ArcId first;
        std::uint32_t count;
    };
    ArcSpan arcSpan(wfst::StateId s) const;

    /** Software prefetch for the tokens after live entry @p t. */
    void prefetchAhead(std::size_t t, wfst::LogProb threshold) const;

    /** Frame threshold: beam pruning plus histogram pruning. */
    wfst::LogProb frameThreshold();

    /** Upsert into @p hash, recording the arc op outcome. */
    void emitToken(TokenHash &hash, wfst::StateId dest,
                   wfst::LogProb score, std::uint32_t prev_bp,
                   wfst::WordId word, ArcOp &aop);

    const wfst::Wfst &net;
    const wfst::SortedWfst *sorted;
    const AcceleratorConfig &cfg;

    TokenHash hashA, hashB;
    TokenHash *cur, *next;

    std::vector<BackRecord> arena;
    std::vector<wfst::LogProb> cutoffScratch;
    std::vector<std::uint64_t> visits;
    std::vector<wfst::StateId> expandedStates;  //!< this frame's, in order
    decoder::DecodeStats stats;
    std::uint64_t directCount = 0;
    std::uint64_t fetchCount = 0;
};

} // namespace asr::accel

#endif // ASR_ACCEL_EXPAND_HH
