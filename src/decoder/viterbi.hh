/**
 * @file
 * Software Viterbi beam search, rebuilt around decoder::TokenStore.
 *
 * Frame-synchronous token passing over the WFST:
 *   1. prune the active tokens of the current frame against
 *      best-score-minus-beam (optionally raised by histogram
 *      pruning, like Kaldi's GetCutoff);
 *   2. expand every arc of each survivor: non-epsilon arcs combine
 *      with the current frame's acoustic score and land in the next
 *      frame; epsilon arcs consume no frame and land back in the
 *      current frame, re-queueing their destination for the same
 *      pass (strict improvement bounds the traversal);
 *   3. after the last frame, epsilon-close the final token set, pick
 *      the best token and backtrack the stored (predecessor, word)
 *      records into the word sequence.
 *
 * This is the *optimized* software search: the paper's compact-hash
 * treatment (Sec. III-B) applied to the CPU hot path.  Per-frame
 * token sets live in epoch-tagged flat hashes (token_store.hh), the
 * pruning threshold comes from a running best maintained inside
 * relax, doomed backpointer appends are skipped, the append-only
 * backpointer arena is mark-compact collected at a configurable
 * watermark so streaming sessions run in bounded memory, and a
 * steady-state frame performs zero heap allocations.  Results are
 * bit-identical to decoder::BaselineViterbiDecoder (the frozen
 * general-container baseline, baseline.hh) and to the accelerator's
 * functional model under every beam / maxActive / histogram
 * configuration -- the equivalence suite asserts all three.
 */

#ifndef ASR_DECODER_VITERBI_HH
#define ASR_DECODER_VITERBI_HH

#include <cstdint>
#include <span>
#include <vector>

#include "acoustic/likelihoods.hh"
#include "decoder/result.hh"
#include "decoder/token_store.hh"
#include "wfst/wfst.hh"

namespace asr::decoder {

/** Token-passing Viterbi beam-search decoder. */
class ViterbiDecoder
{
  public:
    /**
     * @param wfst   recognition network (must outlive the decoder)
     * @param config beam parameters
     */
    ViterbiDecoder(const wfst::Wfst &wfst,
                   const DecoderConfig &config = DecoderConfig());

    /** Decode one utterance worth of acoustic scores. */
    DecodeResult decode(const acoustic::AcousticLikelihoods &scores);

    // ---- Streaming interface ----
    //
    // Mirrors accel::Accelerator's streaming API so the two backends
    // are interchangeable behind server::StreamingSession.  decode()
    // above is exactly streamBegin + streamFrame per frame +
    // streamFinish, so batch and streaming results are bit-identical.

    /** Start a streaming utterance (resets per-utterance state). */
    void streamBegin();

    /**
     * Decode one 10 ms frame.
     * @param frame log-likelihoods indexed by phoneme id
     *              (slot 0 = epsilon, unused)
     */
    void streamFrame(std::span<const float> frame);

    /**
     * Best word sequence so far (partial hypothesis; no closure).
     * The backtrack is cached: repeated calls while the best token's
     * backpointer is unchanged return the same vector without
     * re-walking the chain or allocating.  The reference is valid
     * until the next streaming call.
     */
    const std::vector<wfst::WordId> &streamPartial() const;

    /** Close the utterance: epsilon-close, pick best, backtrack. */
    DecodeResult streamFinish();

    /** Active (post-insertion) token count of each decoded frame. */
    const std::vector<std::uint32_t> &
    activeTokensPerFrame() const
    {
        return activeHistory;
    }

    // ---- Arena occupancy (streaming-memory telemetry) ----

    /** Live backpointer records right now. */
    std::size_t arenaSize() const { return arena.size(); }

    /** High-water arena size of the current/last utterance. */
    std::size_t arenaPeakEntries() const { return arenaPeak; }

  private:
    /** Backtracking record (mirrors the accelerator's DRAM trace). */
    struct BackPtr
    {
        std::int64_t prev;
        wfst::WordId word;
    };

    /**
     * Insert/improve a token via the store and record its
     * backpointer -- unless @p skip_below proves the candidate can
     * never pass this frame's pruning, in which case the (never
     * read) arena append is skipped.
     * @return true when the score was improved
     */
    bool relax(TokenStore &store, wfst::StateId state,
               wfst::LogProb score, std::int64_t prev_bp,
               wfst::WordId word, wfst::LogProb skip_below);

    /**
     * streamFrame's body, templated over the arc layout (the raw
     * flat array or the compact encoding, decoder/arc_view in
     * viterbi.cc).  The layout is chosen once per frame, so the
     * per-arc inner loop pays no dispatch.
     */
    template <class View>
    void streamFrameImpl(std::span<const float> frame,
                         const View &view);

    /** streamFinish's epsilon-closure loop, same dispatch. */
    template <class View>
    void finishClosure(const View &view, DecodeStats &stats);

    /** Pruning threshold: beam plus optional histogram pruning. */
    wfst::LogProb frameThreshold(const TokenStore &store) const;

    /** Backtrack @p bp into @p out (oldest word first). */
    void backtrackInto(std::int64_t bp,
                       std::vector<wfst::WordId> &out) const;

    /** Mark-compact the arena when it crosses the GC watermark. */
    void maybeCollectArena();

    /** Sentinel: partial-hypothesis cache holds nothing valid. */
    static constexpr std::int64_t kPartialCacheInvalid = -2;

    const wfst::Wfst &net;
    DecoderConfig cfg;
    std::vector<BackPtr> arena;
    std::size_t arenaPeak = 0;
    std::size_t arenaLiveAfterGc = 0;
    std::vector<std::uint8_t> gcMark;       //!< reused mark bitmap
    std::vector<std::int64_t> gcRemap;      //!< reused old->new map
    std::vector<std::uint32_t> activeHistory;
    std::vector<wfst::ArcEntry> arcScratch;  //!< compact decode buffer
    mutable std::vector<wfst::LogProb> cutoffScratch;
    mutable std::vector<wfst::WordId> partialScratch;
    mutable std::int64_t partialCacheBp = kPartialCacheInvalid;

    // Streaming state (valid between streamBegin and streamFinish).
    bool streaming = false;
    TokenStore cur, next;
    DecodeStats streamStats;
};

} // namespace asr::decoder

#endif // ASR_DECODER_VITERBI_HH
