/**
 * @file
 * One streaming decode session: audio in frame-sized chunks, partial
 * hypotheses out, a final RecognitionResult at the end.
 *
 * A session pipelines the three stages incrementally:
 *
 *   pushAudio ──► StreamingMfcc (25 ms windows / 10 ms hop)
 *              ──► context splice + per-frame DNN scoring
 *              ──► frame-synchronous search (search::Backend)
 *
 * A frame is scored as soon as its right DNN context exists, so the
 * decoder lags the audio by contextFrames x 10 ms; finish() flushes
 * the tail with the same edge replication spliceContext uses.  By
 * construction the final result is bit-identical to the batch path
 * (scorer().score + decoder.decode over the whole utterance).
 *
 * Sessions share one immutable pipeline::AsrModel (never mutated;
 * see model.hh for the thread-safety contract) and privately own all
 * mutable state: the streaming front-end, the search backend
 * instance (selected by name among the search::Backend built-ins), and
 * a deterministic per-session RNG derived from (base seed, session
 * id) so concurrent runs reproduce bit-exactly regardless of thread
 * scheduling.
 */

#ifndef ASR_SERVER_SESSION_HH
#define ASR_SERVER_SESSION_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "acoustic/backend.hh"
#include "acoustic/matrix.hh"
#include "common/rng.hh"
#include "frontend/mfcc.hh"
#include "pipeline/model.hh"
#include "pipeline/recognition.hh"
#include "search/backend.hh"

namespace asr::server {

/**
 * The per-session search/reproducibility knobs every engine surface
 * shares.  SessionConfig and api::EngineOptions both embed this one
 * struct (by inheritance, so the field names stay flat) and hand it
 * down by slice assignment -- a new knob added here flows through
 * every layer with no copy-through to forget.
 */
struct SessionKnobs
{
    /**
     * Search backend name, one of the built-ins of search/backend.hh:
     * "viterbi" (the production decoder), "baseline" (the frozen
     * oracle) or "accel" (the accelerator model).  Empty selects
     * "viterbi".
     */
    std::string searchBackend;

    /** Accel cycle simulation per frame (cannot change results). */
    bool runTiming = false;

    /**
     * Uniform dither amplitude added to incoming samples from the
     * session RNG (0 disables).  Real front-ends dither to avoid
     * log(0) on digital silence; here it also exercises the
     * deterministic per-session seeding: results depend on the RNG
     * stream, so scheduling-independent reproducibility is testable.
     */
    float ditherAmplitude = 0.0f;

    /** Beam override; <= 0 uses the model's configured beam. */
    float beam = 0.0f;

    /** Histogram-pruning cap (0 = off), as DecoderConfig::maxActive. */
    std::uint32_t maxActive = 0;

    /**
     * Backpointer-arena GC watermark for the software search, as
     * DecoderConfig::arenaGcWatermark (entries; 0 = off).  Long
     * streaming sessions should set this: the arena otherwise grows
     * for the life of the utterance (exact backtracking keeps the
     * full trace).  Collection never changes results.
     */
    std::uint64_t arenaGcWatermark = 0;

    /** The search backend name the knobs resolve to. */
    std::string_view
    effectiveSearchBackend() const
    {
        return searchBackend.empty() ? std::string_view("viterbi")
                                     : std::string_view(searchBackend);
    }
};

/** Per-session configuration: the shared knobs plus identity. */
struct SessionConfig : SessionKnobs
{
    std::uint64_t id = 0;          //!< session id (stats, seeding)
    std::uint64_t baseSeed = 1;    //!< engine-wide base seed

    /**
     * Deferred scoring: instead of running the DNN inline per frame,
     * the session parks spliced feature rows in a pending buffer for
     * an external batch scorer (server::BatchScorer) that coalesces
     * frames across sessions into one GEMM.  The driver loop becomes
     *   pushAudio ... / flushPending -> exportPending -> (batched
     *   forward) -> consumePendingScores -> finalizeFinish.
     * Results are bit-identical to inline scoring on the float
     * backends (row-wise forward; see acoustic/backend.hh).
     * api::Engine always sets this; inline scoring (false) is the
     * self-contained reference decoder tests and benchmarks compare
     * served results against.
     */
    bool deferScoring = false;
};

/** A single streaming utterance decode over a shared model. */
class StreamingSession
{
  public:
    StreamingSession(const pipeline::AsrModel &model,
                     const SessionConfig &cfg);
    ~StreamingSession();

    /** Feed the next chunk of audio samples (any size, even empty). */
    void pushAudio(std::span<const float> samples);

    /**
     * Best word sequence so far (no epsilon closure) -- the partial
     * hypothesis a live client would display while speaking.
     */
    std::vector<wfst::WordId> partialWords() const;

    /**
     * Close the utterance: flush buffered frames, epsilon-close,
     * backtrack.  The session cannot accept audio afterwards.
     * Inline-scoring (reference) sessions only; deferred sessions
     * close via flushPending + consumePendingScores + finalizeFinish.
     */
    pipeline::RecognitionResult finish();

    // -- Deferred-scoring protocol (cfg.deferScoring only) ----------

    /** Spliced frames waiting for the external batch scorer. */
    std::size_t pendingRows() const { return pendingRows_; }

    /** Width of one spliced row ((2*context+1) * feature dim). */
    std::size_t splicedDim() const;

    /**
     * Copy the pending spliced rows into rows [base, base+pendingRows)
     * of @p batch (the cross-session input matrix).
     */
    void exportPending(acoustic::Matrix &batch, std::size_t base) const;

    /**
     * Accept log-softmax scores for the previously exported rows
     * (rows [base, base+pendingRows) of @p logp) and feed them to the
     * frame-synchronous search in order.  @p acoustic_seconds is this
     * session's share of the batched forward's wall-clock.
     */
    void consumePendingScores(const acoustic::Matrix &logp,
                              std::size_t base,
                              double acoustic_seconds);

    /**
     * Deferred finish, step 1: no more audio; flush-splice the tail
     * frames (edge replication) into the pending buffer.
     */
    void flushPending();

    /**
     * Deferred finish, step 2 (requires pendingRows() == 0):
     * epsilon-close, backtrack, return the final result.
     */
    pipeline::RecognitionResult finalizeFinish();

    /** Frames fed to the search so far. */
    std::uint64_t framesDecoded() const { return framesFed; }

    /** Samples accepted so far. */
    std::uint64_t samplesPushed() const { return streamingMfcc.samplesPushed(); }

    const SessionConfig &config() const { return cfg; }

  private:
    /** Score+feed every frame whose context allows it. */
    void drainReadyFrames(bool flush);

    /** Score raw feature frame @p f (with edge-clamped context). */
    void scoreAndFeed(std::size_t f, std::size_t total_hint);

    /** Splice frame @p f into splicedScratch (edge-clamped context). */
    void spliceFrame(std::size_t f, std::size_t total_hint);

    /** Assemble the final RecognitionResult (streamFinish + stats). */
    pipeline::RecognitionResult finalizeResult();

    const pipeline::AsrModel &model;
    SessionConfig cfg;
    Rng rng_;

    frontend::StreamingMfcc streamingMfcc;

    /**
     * Sliding window of extracted feature frames.  Only the trailing
     * 2*contextFrames+1 frames are ever re-read (the splice window),
     * so frames that have left it are dropped as scoring advances;
     * rawBase is the absolute index of rawFeats.front().  This keeps
     * the front-end side of a session bounded.  With
     * cfg.arenaGcWatermark set, the software decoder also collects
     * the dead part of its backpointer trace, which keeps long
     * utterances near the watermark in practice (beam paths merge,
     * so live chains share one backbone) -- but the *live* trace
     * still grows with hypothesis length, and the accelerator
     * backend never collects, so sessions should still finish() at
     * utterance boundaries rather than stream forever.
     */
    std::deque<std::vector<float>> rawFeats;
    std::size_t rawBase = 0;
    std::size_t scoredUpTo = 0;        //!< frames fed to the decoder
    std::uint64_t framesFed = 0;
    bool finished = false;

    // Per-frame scratch, reused so steady-state scoring allocates
    // nothing: the spliced context window, the likelihood row handed
    // to the search, and the backend's activation buffers.
    std::vector<float> splicedScratch;
    std::vector<float> likesScratch;
    acoustic::FrameScratch frameScratch;

    /**
     * Deferred mode: spliced rows (pendingRows_ x splicedDim, row
     * major) waiting for the external batch scorer.
     */
    std::vector<float> pendingSpliced;
    std::size_t pendingRows_ = 0;

    /** The search, resolved by name at construction. */
    std::unique_ptr<search::Backend> search_;

    double frontendSeconds = 0.0;
    double acousticSeconds = 0.0;
    double searchSeconds = 0.0;
};

} // namespace asr::server

#endif // ASR_SERVER_SESSION_HH
