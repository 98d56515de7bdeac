/**
 * @file
 * Always-on decode session: an endless audio stream in, one
 * RecognitionResult per detected utterance segment out.
 *
 * A SegmentedSession chains the always-on front-end to the decoder:
 *
 *   pushAudio ──► WakeWordGate (optional) ──► frontend::Endpointer
 *             ──► one StreamingSession per detected segment
 *
 * Each SegmentStart event constructs a fresh StreamingSession (same
 * SessionConfig, so the per-session RNG stream and search backend are
 * identical for every segment); Audio events are forwarded verbatim;
 * SegmentEnd finishes the session and emits the result through the
 * onSegment callback together with its sample-exact boundary.
 * Because the endpointer forwards exactly the samples in
 * [startSample, endSample), a segment's result is bit-identical to a
 * manual StreamingSession decode of that slice -- the contract
 * tests/endpointing_corpus_test.cc asserts.
 *
 * Segment sessions use deferred scoring (cfg.session.deferScoring
 * must be set; the constructor asserts it), driven by api::Engine's
 * coordinator: pushAudio() only accumulates spliced rows in the
 * active StreamingSession; the coordinator scores them externally and
 * then resolves segment closes:
 *   pushAudio ... / beginFinish
 *     -> active()->exportPending / consumePendingScores (coordinator)
 *     -> segmentClosing() && pendingRows()==0: finalizeSegment()
 *     -> finishReady(): finalizeFinish()
 * A SegmentEnd is *not* resolved inside pushAudio (the rows are not
 * scored yet); pushAudio stops pumping events at the close and
 * resumes after finalizeSegment(), preserving event order.  The
 * final result is the last segment's, or an empty decode when the
 * stream contained no speech.
 *
 * Thread safety: none (like StreamingSession).  The batch coordinator
 * may call pushAudio and finalizeSegment from different threads, but
 * only across tick-stage barriers that order the accesses.
 */

#ifndef ASR_SERVER_SEGMENTED_SESSION_HH
#define ASR_SERVER_SEGMENTED_SESSION_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "frontend/endpointer.hh"
#include "pipeline/model.hh"
#include "pipeline/recognition.hh"
#include "server/session.hh"

namespace asr::server {

/** Sample-exact position of one finished segment in the stream. */
struct SegmentBoundary
{
    std::uint64_t index = 0;        //!< 0-based segment ordinal
    std::uint64_t startSample = 0;  //!< inclusive, in pushed samples
    std::uint64_t endSample = 0;    //!< exclusive
};

/** Configuration of one always-on session. */
struct SegmentedConfig
{
    /** Decode knobs shared by every segment's StreamingSession
     *  (deferScoring must be set). */
    SessionConfig session;

    /** Segmentation knobs (detector name, onset/hangover, ...). */
    frontend::EndpointerConfig endpoint;

    /**
     * Wake phrase audio; non-empty arms a WakeWordGate in front of
     * the endpointer: nothing reaches segmentation (or the decoder)
     * until the phrase is heard once.  Boundaries stay relative to
     * the *full* pushed stream, suppressed prefix included.
     */
    std::vector<float> wakeWord;

    /** WakeWordGate match threshold. */
    float wakeThreshold = 0.7f;
};

/** An endless audio stream decoded segment by segment. */
class SegmentedSession
{
  public:
    using SegmentCallback =
        std::function<void(const pipeline::RecognitionResult &,
                           const SegmentBoundary &)>;

    SegmentedSession(const pipeline::AsrModel &model,
                     const SegmentedConfig &cfg);
    ~SegmentedSession();

    /** Install the per-segment sink (before the first pushAudio). */
    void onSegment(SegmentCallback cb) { segmentCb = std::move(cb); }

    /** Feed the next chunk of the endless stream (any size). */
    void pushAudio(std::span<const float> samples);

    /** Partial hypothesis of the in-progress segment (empty between
     *  segments). */
    std::vector<wfst::WordId> partialWords() const;

    // -- Deferred-scoring protocol -----------------------------------

    /** End of stream: flush the endpointer and start draining. */
    void beginFinish();

    bool finishing() const { return finishing_; }

    /**
     * The segment StreamingSession currently accumulating or
     * draining rows (nullptr between segments) -- what the batch
     * driver scores.
     */
    StreamingSession *active() { return current.get(); }

    /** A SegmentEnd is waiting on the active session's pending rows
     *  being scored. */
    bool segmentClosing() const { return closing; }

    /**
     * Resolve a pending SegmentEnd (requires segmentClosing() and
     * active()->pendingRows() == 0): finish the segment, fire
     * onSegment, and resume pumping buffered endpointer events
     * (possibly opening the next segment).
     */
    void finalizeSegment();

    /** All segments resolved after beginFinish(): the final result
     *  can be taken. */
    bool
    finishReady() const
    {
        return finishing_ && !closing && !current &&
               !endpointer.eventReady();
    }

    /** Deferred finish, last step (requires finishReady()). */
    pipeline::RecognitionResult finalizeFinish();

    // -- Introspection ----------------------------------------------

    /** Segments finished and emitted so far. */
    std::uint64_t segmentsFinalized() const { return segCount; }

    /** True once an armed wake gate has opened (false when no
     *  wake word was configured). */
    bool gateOpened() const;

    /** Samples swallowed by the closed wake gate. */
    std::uint64_t samplesSuppressed() const { return suppressed; }

    /** Samples pushed into the session (gate included). */
    std::uint64_t samplesPushed() const { return pushed; }

    const SegmentedConfig &config() const { return cfg; }

  private:
    /** Drain endpointer events until empty or a segment close. */
    void pump();

    /** Record + emit one finished segment. */
    void emitSegment(pipeline::RecognitionResult result,
                     std::uint64_t start, std::uint64_t end);

    /** The final result for a stream with no detected segments. */
    pipeline::RecognitionResult emptyResult();

    const pipeline::AsrModel &model;
    SegmentedConfig cfg;
    std::optional<frontend::WakeWordGate> gate;
    frontend::Endpointer endpointer;
    SegmentCallback segmentCb;

    /** The in-progress segment's decode (null between segments). */
    std::unique_ptr<StreamingSession> current;

    /** Boundary of the deferred SegmentEnd awaiting finalizeSegment. */
    std::uint64_t closeStart = 0;
    std::uint64_t closeEnd = 0;

    /** Last finished segment's result: the stream's final result. */
    std::optional<pipeline::RecognitionResult> lastResult;

    std::uint64_t segCount = 0;
    std::uint64_t pushed = 0;
    std::uint64_t suppressed = 0;
    bool closing = false;    //!< SegmentEnd awaiting scores
    bool finishing_ = false; //!< beginFinish() called
};

} // namespace asr::server

#endif // ASR_SERVER_SEGMENTED_SESSION_HH
