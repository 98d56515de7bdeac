/**
 * @file
 * Common result/config types shared by the software decoder and the
 * accelerator model, so both can be cross-checked directly.
 */

#ifndef ASR_DECODER_RESULT_HH
#define ASR_DECODER_RESULT_HH

#include <cstdint>
#include <vector>

#include "wfst/types.hh"

namespace asr::decoder {

/** Beam-search parameters (shared by CPU decoder and accelerator). */
struct DecoderConfig
{
    /** Log-space beam width: tokens below best - beam are pruned. */
    float beam = 12.0f;

    /**
     * Histogram (max-active) pruning: when more than this many
     * tokens are live at a frame, the pruning threshold is raised to
     * the maxActive-th best score, exactly like Kaldi's GetCutoff().
     * Keeps the search stable through flat acoustic stretches.
     * 0 disables the cap.
     */
    std::uint32_t maxActive = 0;

    /**
     * When true and the WFST has final states, the winning token is
     * chosen by score + final weight among final states (falling
     * back to the plain maximum when no final state is active).  The
     * paper simply takes the maximum-likelihood token of the last
     * frame, which is the default here.
     */
    bool useFinalWeights = false;

    /**
     * Backpointer-arena garbage collection watermark, in arena
     * entries (software decoder only; 0 disables).  The arena is
     * append-only within a frame; when it approaches the watermark
     * at a frame boundary, the decoder marks the records reachable
     * from the live tokens, compacts the survivors in place and
     * remaps every live backpointer.  Collection never changes
     * decode results (the word chains are preserved verbatim); it
     * only bounds the memory of long streaming sessions.  Size the
     * watermark several times the per-frame append volume
     * (arcsExpanded-ish) so the collector is not re-triggered every
     * frame.
     */
    std::uint64_t arenaGcWatermark = 0;

    /**
     * Walk the compressed arc layout (wfst/compact.hh) instead of
     * the raw 16-byte-per-arc array.  Requires a CompactArcs to be
     * attached to the Wfst (fatal otherwise).  Results are
     * bit-identical to the raw layout.  Software decoder only; the
     * accelerator model and the frozen baseline always walk the raw
     * layout.
     */
    bool useCompactArcs = false;
};

/** Per-decode statistics (the workload numbers quoted in the paper). */
struct DecodeStats
{
    std::uint64_t framesDecoded = 0;
    std::uint64_t tokensExpanded = 0;   //!< tokens passing the beam
    std::uint64_t tokensPruned = 0;     //!< tokens cut by the beam
    std::uint64_t tokensCreated = 0;    //!< insertions incl. updates
    std::uint64_t arcsExpanded = 0;     //!< non-epsilon arcs traversed
    std::uint64_t epsArcsExpanded = 0;  //!< epsilon arcs traversed

    /**
     * Graph bytes the search read to expand tokens: one per-state
     * record (8 bytes) plus that state's arc records -- raw 16-byte
     * entries or the encoded compact group, whichever layout the
     * decode walked.  This is the paper's DRAM-traffic evidence: the
     * quantity its accelerator caches exist to absorb, and the
     * number the compact layout is built to shrink (compare
     * bytesPerFrame() across layouts in bench/search_throughput).
     */
    std::uint64_t graphBytesTouched = 0;

    // Software decoder only (zero for the accelerator model):
    // backpointer-arena economics of the TokenStore search.
    std::uint64_t bpAppendsSkipped = 0;  //!< doomed-token appends avoided
    std::uint64_t arenaGcRuns = 0;       //!< mark-compact collections
    std::uint64_t arenaEntriesReclaimed = 0;  //!< records freed by GC
    std::uint64_t arenaPeakEntries = 0;  //!< high-water arena size

    double
    arcsPerFrame() const
    {
        return framesDecoded
                   ? double(arcsExpanded + epsArcsExpanded) /
                         double(framesDecoded)
                   : 0.0;
    }

    double
    tokensPerFrame() const
    {
        return framesDecoded
                   ? double(tokensExpanded) / double(framesDecoded)
                   : 0.0;
    }

    /** Mean graph bytes touched per decoded frame. */
    double
    bytesPerFrame() const
    {
        return framesDecoded
                   ? double(graphBytesTouched) / double(framesDecoded)
                   : 0.0;
    }
};

/** Output of a decode: the word sequence and bookkeeping. */
struct DecodeResult
{
    std::vector<wfst::WordId> words;  //!< best-path output labels
    wfst::LogProb score = wfst::kLogZero;  //!< best final token score
    wfst::StateId bestState = wfst::kNoState;
    DecodeStats stats;
};

} // namespace asr::decoder

#endif // ASR_DECODER_RESULT_HH
