/**
 * @file
 * One streaming decode session: audio in frame-sized chunks, partial
 * hypotheses out, a final RecognitionResult at the end.
 *
 * A session pipelines the three stages incrementally:
 *
 *   pushAudio ──► StreamingMfcc (25 ms windows / 10 ms hop)
 *              ──► context splice into pending rows
 *              ──► acoustic::Backend::scoreBatch
 *              ──► frame-synchronous search (search::Backend)
 *
 * A frame is spliced and parked as soon as its right DNN context
 * exists, so the decoder lags the audio by contextFrames x 10 ms;
 * flushPending() splices the tail with the same edge replication
 * spliceContext uses.  The parked rows reach scoreBatch one of two
 * ways:
 *  - api::Engine's coordinator gathers every session's rows into
 *    one cross-session batch (server::BatchScorer) and hands each
 *    session its scores back:
 *      pushAudio ... / flushPending -> exportPending -> (batched
 *      forward) -> consumePendingScores -> finalizeFinish;
 *  - an inline-scoring session scores its own rows with
 *    scorePending() and finish(): the self-contained reference
 *    decoder that tests and benchmarks compare served results
 *    against.
 * Row r of scoreBatch depends only on input row r (see
 * acoustic/backend.hh), so both ways give the same bits, and the
 * final result is bit-identical to the batch path (scorer().score +
 * decoder.decode over the whole utterance).
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
};

/** A single streaming utterance decode over a shared model. */
class StreamingSession
{
  public:
    StreamingSession(const pipeline::AsrModel &model,
                     const SessionConfig &cfg);
    ~StreamingSession();

    /**
     * Feed the next chunk of audio samples (any size, even empty).
     * Every frame whose right context is now complete is spliced
     * into the pending rows; nothing is scored here.
     */
    void pushAudio(std::span<const float> samples);

    /**
     * Best word sequence over the frames scored so far (no epsilon
     * closure) -- the partial hypothesis a live client would display
     * while speaking.
     */
    std::vector<wfst::WordId> partialWords() const;

    /**
     * Close the utterance of an inline-scoring session:
     * flushPending(), scorePending(), finalizeFinish().  The session
     * cannot accept audio afterwards.
     */
    pipeline::RecognitionResult finish();

    // -- Pending rows -------------------------------------------------

    /** Spliced frames waiting to be scored. */
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
     * Score the pending rows through the model's backend and feed
     * them to the search in order: what an inline-scoring session
     * does in place of an external batch scorer.  Rows go to
     * scoreBatch in slices of at most acoustic::kRowBlock, which
     * make the same weight passes as one call over every row while
     * holding the activations of one row block only.
     */
    void scorePending();

    /**
     * Close, step 1: no more audio; splice the tail frames (edge
     * replication) into the pending rows.
     */
    void flushPending();

    /**
     * Close, step 2 (requires pendingRows() == 0): epsilon-close,
     * backtrack, return the final result.
     */
    pipeline::RecognitionResult finalizeFinish();

    /** Frames fed to the search so far. */
    std::uint64_t framesDecoded() const { return framesFed; }

    /** Samples accepted so far. */
    std::uint64_t samplesPushed() const { return streamingMfcc.samplesPushed(); }

    const SessionConfig &config() const { return cfg; }

  private:
    /** Park every frame whose context allows it. */
    void drainReadyFrames(bool flush);

    /** Splice frame @p f (edge-clamped context) onto the pending rows. */
    void parkFrame(std::size_t f, std::size_t total_hint);

    /** Feed rows [base, base + rows) of @p logp to the search in order. */
    void feedScores(const acoustic::Matrix &logp, std::size_t base,
                    std::size_t rows);

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
    std::size_t parkedUpTo = 0;        //!< frames spliced so far
    std::uint64_t framesFed = 0;
    bool finished = false;

    /** The likelihood row handed to the search, reused per frame. */
    std::vector<float> likesScratch;

    /**
     * Spliced rows (pendingRows_ x splicedDim, row major) waiting to
     * be scored.
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
