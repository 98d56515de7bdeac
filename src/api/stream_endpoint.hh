/**
 * @file
 * The abstract live-stream surface shared by everything that can
 * serve streams: the single-process api::Engine and the fleet-layer
 * fleet::ShardRouter that multiplexes N engines behind one facade.
 *
 * The handle types and per-stream options live here (they predate
 * this interface; engine.hh re-exports them unchanged), so a caller
 * written against StreamEndpoint -- the net::Server front door, the
 * fleet::LoadGen harness -- cannot tell whether one engine or a
 * sharded fleet is behind it.  Every implementation honours the same
 * contracts documented on the types below:
 *
 *  - the invalid-handle contract (StreamHandle),
 *  - the stream state machine (StreamState),
 *  - the recoverable/permanent rejection split (OpenStatus),
 *  - bounded-wait backpressure (PushResult).
 */

#ifndef ASR_API_STREAM_ENDPOINT_HH
#define ASR_API_STREAM_ENDPOINT_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <span>
#include <vector>

#include "frontend/endpointer.hh"
#include "pipeline/recognition.hh"
#include "server/engine_stats.hh"
#include "server/segmented_session.hh"
#include "wfst/types.hh"

namespace asr::api {

/**
 * Opaque identifier of one live stream (valid for its endpoint).
 *
 * Invalid-handle contract: value 0 is never issued; it is what
 * open() returns on rejection and what a default-constructed handle
 * holds.  Every accessor degrades cleanly on an invalid (or retired,
 * or foreign) handle instead of crashing: push() returns false and
 * drops the audio, partial() returns an empty hypothesis, finish()
 * returns an invalid future (valid() == false) without disturbing
 * drain() accounting, cancel() returns false, and state() reads
 * Done.  Callers shedding load therefore only ever need to check
 * open()'s return for value != 0.
 */
struct StreamHandle
{
    std::uint64_t value = 0;  //!< 0 = never a valid handle

    friend bool
    operator==(const StreamHandle &a, const StreamHandle &b)
    {
        return a.value == b.value;
    }
};

/** Where a stream is in its lifecycle (see engine.hh's diagram). */
enum class StreamState
{
    Open,       //!< accepting push()
    Finishing,  //!< finish() called, tail still decoding
    Done,       //!< final result delivered to the future
    Cancelled,  //!< cancel() called; no result
};

/**
 * Machine-readable outcome of open().  Before this existed, every
 * rejection looked the same to callers -- handle 0 plus a warn() on
 * stderr -- so an embedding server could not tell "retry in a moment"
 * from "this request can never succeed".  The split is exactly the
 * load-shedding decision a front door has to make:
 *
 *  - Capacity is *recoverable*: the engine's admission limit
 *    (EngineOptions::maxBatchSessions open live streams, one
 *    coordinator slot each) is reached right now; the same open()
 *    succeeds once a stream finishes or is cancelled.  A server maps
 *    this to a protocol-level RETRY_AFTER.
 *  - InvalidOptions is *permanent* for these options: an unknown
 *    vad::Detector name, or wakeWord without autoEndpoint.  Retrying
 *    cannot help; a server maps this to a hard ERROR.
 */
enum class OpenStatus
{
    Ok,             //!< handle issued
    Capacity,       //!< recoverable: all slots taken, retry later
    InvalidOptions, //!< permanent: these options can never open
};

/**
 * Outcome of a bounded-wait pushFor().  Distinguishes "the stream is
 * gone" (Rejected -- also what plain push() == false means) from
 * "the stream is healthy but its inbound queue stayed full for the
 * whole timeout" (WouldBlock), which a caller that owns other work
 * -- an event-loop thread serving many connections -- handles by
 * retrying later instead of parking forever.
 */
enum class PushResult
{
    Ok,         //!< chunk queued
    WouldBlock, //!< backpressure held for the full timeout; not queued
    Rejected,   //!< stream not Open (finished/cancelled/unknown)
};

/** Per-stream options. */
struct StreamOptions
{
    /**
     * Invoked (from an engine thread) whenever the stream's partial
     * hypothesis changes; receives the new hypothesis.  Leave empty
     * to poll partial() instead.
     */
    std::function<void(const std::vector<wfst::WordId> &)> onPartial;

    /**
     * Always-on mode: run the stream through the VAD/endpointing
     * front-end (frontend::Endpointer).  The stream never needs a
     * client-side finish() per utterance: trailing silence closes
     * each detected segment, its result is delivered through
     * onSegment, and the decoder transparently re-opens on the next
     * speech onset.  finish() still closes the *stream*; its future
     * resolves to the last segment's result (or an empty decode when
     * no speech was ever detected).  Segment results are
     * bit-identical to a manual decode of the same sample range --
     * see docs/ARCHITECTURE.md "Always-on pipeline".
     *
     * open() rejects the stream (invalid handle, with a warn()
     * diagnostic) when endpoint.detector names no registered
     * vad::Detector.
     */
    bool autoEndpoint = false;

    /** Segmentation knobs (detector name, onset/hangover frames). */
    frontend::EndpointerConfig endpoint;

    /**
     * Invoked (from an engine thread) with each auto-endpointed
     * segment's final result and its sample-exact boundary, in
     * segment order.  Same restrictions as onPartial: must not call
     * back into the engine.
     */
    std::function<void(const pipeline::RecognitionResult &,
                       const server::SegmentBoundary &)>
        onSegment;

    /**
     * Wake-word gating (requires autoEndpoint; open() rejects the
     * combination wakeWord-without-autoEndpoint): audio at the
     * model's sample rate containing one utterance of the wake
     * phrase.  Nothing reaches the endpointer -- or the decoder --
     * until the phrase is spotted once (frontend::WakeWordGate
     * template match); the phrase itself is not decoded.
     */
    std::vector<float> wakeWord;

    /** Wake-phrase match threshold, mean MFCC cosine in (0, 1]. */
    float wakeThreshold = 0.7f;

    /**
     * Whole-stream deadline in milliseconds from open(), 0 = none.
     * The engine watchdog enforces it: an Open stream whose deadline
     * passes is cancelled (push() starts rejecting, state() reads
     * Cancelled); a Finishing stream has its future delivered *at*
     * the deadline with an empty result instead of whenever the tail
     * decode would have completed, so a client's finish().get() is
     * bounded by the budget it asked for.  Either way
     * deadlineExpired(h) reads true afterwards -- the signal the net
     * layer turns into a DEADLINE_EXCEEDED frame.
     */
    std::uint32_t deadlineMs = 0;

    /**
     * Per-stream search-knob overrides (0 = inherit the engine-wide
     * SessionKnobs): the overload layer's degradation lever.  A
     * loaded server shrinks beam/maxActive on newly admitted streams
     * -- slightly worse hypotheses -- instead of refusing them.
     */
    float beam = 0.0f;
    std::uint32_t maxActive = 0;

    /**
     * Mark this stream as degraded-by-overload: counted in
     * EngineStats and echoed by partial/final result flags at the
     * protocol layer.  Informational; does not change decoding (the
     * beam/maxActive overrides above do).
     */
    bool degraded = false;
};

/**
 * Anything that can open, feed and finish live streams.  The
 * documented semantics of every method are identical across
 * implementations; an implementation that shards across engines must
 * preserve per-stream bit-identity with a single engine given the
 * same per-stream inputs.
 *
 * Threading: all methods are safe to call concurrently from any
 * number of client threads (every implementation either locks or
 * forwards to an engine that does).
 */
class StreamEndpoint
{
  public:
    virtual ~StreamEndpoint() = default;

    /**
     * Open a live stream; @p status is Ok exactly when the returned
     * handle is valid (see OpenStatus for the rejection split).
     */
    virtual StreamHandle open(const StreamOptions &options,
                              OpenStatus &status) = 0;

    /** Open without caring why a rejection happened. */
    StreamHandle
    open(const StreamOptions &options = StreamOptions())
    {
        OpenStatus status;
        return open(options, status);
    }

    /**
     * Feed the next captured samples, waiting at most @p timeout for
     * backpressure to clear (0 = pure try-push, negative = unbounded
     * -- what plain push() uses).
     */
    virtual PushResult pushFor(StreamHandle h,
                               std::span<const float> samples,
                               std::chrono::nanoseconds timeout) = 0;

    /** Blocking push: park until the endpoint takes the chunk. */
    bool
    push(StreamHandle h, std::span<const float> samples)
    {
        return pushFor(h, samples, std::chrono::nanoseconds(-1)) ==
               PushResult::Ok;
    }

    /** Latest partial hypothesis (empty for unknown handles). */
    virtual std::vector<wfst::WordId> partial(StreamHandle h) const = 0;

    /**
     * Close the stream: no more audio; the tail is flushed and
     * decoded.  Returns an invalid future when the stream is not
     * Open.
     */
    virtual std::future<pipeline::RecognitionResult>
    finish(StreamHandle h) = 0;

    /** Abandon an Open stream mid-utterance. */
    virtual bool cancel(StreamHandle h) = 0;

    /** Lifecycle state (Done for unknown or long-retired handles). */
    virtual StreamState state(StreamHandle h) const = 0;

    /** True when the stream's deadline expired before its result. */
    virtual bool deadlineExpired(StreamHandle h) const = 0;

    /** Block until every accepted utterance has delivered a result. */
    virtual void drain() = 0;

    /** Aggregate stats since construction. */
    virtual server::EngineSnapshot stats() const = 0;

    /**
     * The engine-wide base beam the overload layer's Degraded
     * admission shrinks (a sharded endpoint reports its shards'
     * common base).
     */
    virtual float baseBeam() const = 0;
};

} // namespace asr::api

#endif // ASR_API_STREAM_ENDPOINT_HH
