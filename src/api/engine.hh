/**
 * @file
 * The unified streaming engine: one public entry point for every
 * recognition scenario.
 *
 *  - One-shot: recognize(audio) / submit(audio) -> future.  The
 *    audio is decoded through a private StreamingSession, chunk by
 *    chunk, exactly as a live client would have streamed it.
 *  - Live streaming: open() returns a StreamHandle; push() feeds
 *    audio as it is captured (with backpressure once the inbound
 *    queue fills), partial() polls the growing hypothesis (or a
 *    StreamOptions::onPartial callback fires on change), finish()
 *    returns the future of the final result, cancel() abandons the
 *    stream mid-utterance.
 *  - Always-on: a live stream opened with
 *    StreamOptions::autoEndpoint runs VAD/endpointing (and an
 *    optional wake-word gate) in front of the decoder: trailing
 *    silence finishes each utterance automatically (results arrive
 *    through StreamOptions::onSegment with sample-exact boundaries)
 *    and decoding transparently re-opens on the next speech onset.
 *
 * One scheduler serves all three: a coordinator advances every
 * in-flight session -- one-shot jobs *and* live streams -- in
 * lockstep ticks and coalesces their pending DNN frames into one
 * cross-session forward pass per tick (server::BatchScorer), the
 * paper's batching-on-a-throughput-device economics, with the
 * per-session advance and search stages fanned out over the worker
 * threads.  A pass over more than one acoustic::kRowBlock of rows
 * fans out too, as row slabs of whole row blocks, one per thread;
 * EngineSnapshot::dnnBatchSeconds stays the pass's wall-clock time.
 *
 * Live ticks run on the frame clock.  While every in-flight session
 * is an Open live stream, the coordinator holds the next tick until
 * each stream has a chunk queued or the oldest queued chunk is one
 * frame shift (the model's MFCC hop, 10 ms) old, so paced clients
 * pushing one frame each share one forward pass per frame shift
 * instead of one pass per push.  The tick starts at once when a
 * stream is behind (holds more than one chunk), when one is closed,
 * finishing or cancelled, when a job or stream is queued, and at
 * shutdown; one-shot jobs never wait.  EngineSnapshot's
 * frameClockWaits and frameClockWaitSeconds count the holds.
 *
 * Every entry style produces bit-identical per-utterance results,
 * equal to an inline-scoring server::StreamingSession over the same
 * audio and session id: sessions share one immutable
 * pipeline::AsrModel, every stochastic component draws from a
 * per-session RNG seeded by deriveSeed(baseSeed, sessionId),
 * incremental MFCC is chunk-boundary-invariant, and the float
 * acoustic backends score row-wise (see acoustic/backend.hh), so
 * neither thread count, batch composition, nor push() granularity
 * can change a result.
 *
 * Stream state machine:
 *
 *    open() ──► Open ──finish()──► Finishing ──result──► Done
 *                 │
 *              cancel() ──► Cancelled        (terminal)
 *
 * push() is only accepted while Open (it returns false otherwise,
 * so a client racing its own finish() gets a clean rejection rather
 * than a crash); finish() and cancel() are accepted once, while
 * Open -- a finish() that loses a race (stream already cancelled or
 * finished) returns an invalid future, a late cancel() returns
 * false.  Handles of live and recently-terminal streams stay
 * queryable (state/partial); the engine retains a bounded window of
 * terminal streams (the most recent ~EngineOptions::retiredHandleCap),
 * after which a handle reads as Done with an empty partial.  Handle
 * values are never recycled, so a stale handle can never alias a
 * younger stream (see nextHandle below).
 *
 * Threading: all public methods are safe to call concurrently from
 * any number of client threads.  onPartial callbacks run on engine
 * worker threads and must not call back into the engine.
 */

#ifndef ASR_API_ENGINE_HH
#define ASR_API_ENGINE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/options.hh"
#include "api/stream_endpoint.hh"
#include "frontend/audio.hh"
#include "frontend/endpointer.hh"
#include "pipeline/model.hh"
#include "pipeline/recognition.hh"
#include "server/batch_scorer.hh"
#include "server/engine_stats.hh"
#include "server/segmented_session.hh"
#include "server/session.hh"
#include "wfst/types.hh"

namespace asr::api {

// StreamHandle, StreamState, OpenStatus, PushResult and
// StreamOptions moved to api/stream_endpoint.hh (re-exported through
// this include) when the abstract StreamEndpoint interface was
// introduced; every existing `api::StreamHandle`-style spelling still
// works.

/** The unified engine facade over one shared model. */
class Engine : public StreamEndpoint
{
  public:
    /**
     * Build the engine's own model over @p net from @p model_cfg as
     * given (trains the acoustic model, see pipeline::AsrModel), then
     * start the coordinator.
     */
    Engine(const wfst::Wfst &net,
           const pipeline::AsrSystemConfig &model_cfg,
           const EngineOptions &opts);

    /**
     * Start the engine over an existing shared @p model (it must
     * outlive the engine; one model can serve many engines).
     */
    Engine(const pipeline::AsrModel &model, const EngineOptions &opts);

    /** Cancels open streams, drains accepted work, joins threads. */
    ~Engine() override;

    // ---- One-shot ---------------------------------------------------

    /**
     * Enqueue one complete utterance for the coordinator.  @return
     * future of the final result (its sessionId field records the
     * assigned id).
     *
     * Audio holding a NaN or +-Inf sample (pushFor()'s rule), or
     * sampled at a rate other than the model's MFCC rate, is refused:
     * nothing is queued, no session id is taken, no job is counted,
     * and the returned future holds a std::invalid_argument.
     * Denormals, +-0 and +-FLT_MAX are ordinary audio.
     */
    std::future<pipeline::RecognitionResult>
    submit(frontend::AudioSignal audio);

    /**
     * Synchronous submit: decode @p audio, wait for the result.
     * @throws std::invalid_argument for audio submit() refuses
     */
    pipeline::RecognitionResult
    recognize(const frontend::AudioSignal &audio);

    // ---- Live streams -----------------------------------------------

    /**
     * Open a live stream.  The stream joins the coordinator's tick
     * loop like any other session, so its frames join the
     * cross-session GEMM.
     *
     * Capacity: at most EngineOptions::maxBatchSessions live streams
     * may be open (not yet Done or Cancelled) at once, one
     * coordinator slot each.  Opening more is rejected (a warn()
     * diagnostic once per saturation episode, and an invalid handle)
     * rather than parking a stream no slot would serve until another
     * finishes.  One-shot jobs do not count toward the limit.
     *
     * @return the stream's handle; an *invalid* handle (value == 0)
     *         when the admission limit is reached -- push/finish/
     *         cancel on it degrade cleanly (false / invalid future),
     *         so callers shedding load need only check value != 0
     *
     * The status-reporting overload: Capacity is recoverable (retry
     * once a stream finishes; the net layer answers RETRY_AFTER),
     * InvalidOptions is permanent for these options (hard error).
     * @p status is Ok exactly when the returned handle is valid.
     * (The status-less open() and blocking push() conveniences are
     * inherited from StreamEndpoint.)
     */
    StreamHandle open(const StreamOptions &options,
                      OpenStatus &status) override;
    using StreamEndpoint::open;
    using StreamEndpoint::push;

    /**
     * As push(), but waits at most @p timeout for backpressure to
     * clear: a stalled stream can no longer wedge the calling thread
     * forever, which is fatal when that thread is an event loop
     * serving other connections.  timeout 0 is a pure try-push.
     *
     * A chunk holding a NaN or +-Inf sample is rejected whole and
     * queues nothing; the stream stays Open, so later finite pushes
     * decode as if it had never been sent.  Denormals, +-0 and
     * +-FLT_MAX are ordinary audio (the same rule as
     * net::decodeSamples on the wire).
     * @return Ok (queued), WouldBlock (queue still full after
     *         @p timeout; the chunk was NOT queued -- retry later),
     *         or Rejected (stream not Open, or a non-finite sample;
     *         equivalent to push() returning false)
     */
    PushResult pushFor(StreamHandle h, std::span<const float> samples,
                       std::chrono::nanoseconds timeout) override;

    /** Latest partial hypothesis (empty for unknown handles). */
    std::vector<wfst::WordId> partial(StreamHandle h) const override;

    /**
     * Close the stream: no more audio; the tail is flushed and
     * decoded.  Accepted exactly once, while Open.
     * @return future of the final result; an *invalid* future
     *         (valid() == false) when the stream is not Open -- a
     *         finish() racing a cancel() degrades cleanly instead of
     *         crashing
     */
    std::future<pipeline::RecognitionResult>
    finish(StreamHandle h) override;

    /**
     * Abandon an Open stream mid-utterance: its session is dropped
     * without producing a result and any blocked push() unblocks.
     * @return false when the stream was not Open (finish()/cancel()
     *         already called, or unknown handle)
     */
    bool cancel(StreamHandle h) override;

    /** Lifecycle state (Done for unknown or long-retired handles). */
    StreamState state(StreamHandle h) const override;

    /**
     * True when the stream's StreamOptions::deadlineMs expired before
     * its result was delivered (false for unknown or long-retired
     * handles).  Valid from the moment the watchdog acts: alongside
     * state() == Cancelled for streams foreclosed while Open, or a
     * resolved-empty future for streams foreclosed while Finishing.
     */
    bool deadlineExpired(StreamHandle h) const override;

    // ---- Engine ------------------------------------------------------

    /** Block until every accepted utterance has delivered a result
     *  (open-but-idle live streams are not waited for). */
    void drain() override;

    /** Aggregate stats since construction (throughput over wall). */
    server::EngineSnapshot stats() const override;

    /** The configured beam overload degradation scales down from. */
    float baseBeam() const override { return model_.config().beam; }

    /** The shared immutable model this engine decodes with. */
    const pipeline::AsrModel &model() const { return model_; }

    const EngineOptions &options() const { return opts; }

    /** Sessions accepted so far (one-shot jobs + opened streams). */
    std::uint64_t submittedCount() const;

  private:
    /**
     * A live stream's shared state: the inbound chunk queue the
     * engine side pulls from, the lifecycle flags, and the latest
     * partial.  Guarded by its own mutex so pushing clients never
     * contend with the engine-wide lock.
     */
    struct LiveStream
    {
        std::uint64_t handle = 0;
        std::uint64_t sessionId = 0;
        StreamOptions options;
        std::chrono::steady_clock::time_point opened;

        mutable std::mutex mu;
        std::condition_variable spaceReady;  //!< chunk consumed
        std::deque<std::vector<float>> chunks;
        /** When the newest chunk was queued.  The frame clock only
         *  holds a tick while each stream has at most one chunk, and
         *  a lone chunk is the newest, so this one stamp is that
         *  chunk's arrival. */
        std::chrono::steady_clock::time_point lastPushAt;
        bool closed = false;     //!< finish() called
        bool cancelled = false;
        bool deadlineExpired = false;  //!< watchdog foreclosed it
        StreamState lifecycle = StreamState::Open;
        std::vector<wfst::WordId> lastPartial;
        bool firstPartialSeen = false;
        std::chrono::steady_clock::time_point closedAt;
        std::promise<pipeline::RecognitionResult> promise;
    };

    /** One queued utterance: a complete signal or a live stream. */
    struct Job
    {
        std::uint64_t sessionId = 0;
        frontend::AudioSignal audio;          //!< one-shot jobs
        std::shared_ptr<LiveStream> live;     //!< live-stream jobs
        std::promise<pipeline::RecognitionResult> promise;
        std::chrono::steady_clock::time_point submitted;
    };

    /** One in-flight utterance of the coordinator. */
    struct ActiveSession
    {
        Job job;
        std::unique_ptr<server::StreamingSession> session;
        /** Auto-endpointed live streams decode through a
         *  SegmentedSession instead (session stays null; the tick
         *  stages score segmented->active()). */
        std::unique_ptr<server::SegmentedSession> segmented;
        std::size_t offset = 0;   //!< samples already pushed (jobs)
        bool finishing = false;   //!< input exhausted, tail flushed
        bool cancelled = false;   //!< live stream cancelled
        std::size_t tickWork = 0; //!< chunks advanced this tick
    };

    void start();
    server::SessionConfig sessionConfigFor(const Job &job) const;
    /** The SegmentedSession configuration of an autoEndpoint job. */
    server::SegmentedConfig segmentedConfigFor(const Job &job) const;
    /** The onSegment sink wired into a stream's SegmentedSession:
     *  records stats and forwards to StreamOptions::onSegment. */
    server::SegmentedSession::SegmentCallback
    segmentSinkFor(const std::shared_ptr<LiveStream> &ls);

    /**
     * Refresh @p ls.lastPartial with @p partial; on change, fire the
     * onPartial callback and record time-to-first-partial.  Called
     * from whichever engine thread is advancing the stream.
     */
    void publishPartial(LiveStream &ls,
                        std::vector<wfst::WordId> partial);

    /**
     * Deliver the final result of a live stream.  @p record_stats is
     * false for auto-endpointed streams whose final result is a
     * re-delivery of the last segment (already recorded when the
     * segment closed).
     */
    void finishLive(LiveStream &ls,
                    pipeline::RecognitionResult result,
                    bool record_stats = true);

    /**
     * Account a stream's transition to a terminal state (Done or
     * Cancelled): frees its admission slot and, once more than
     * retiredHandleCap terminal streams have accumulated, evicts the
     * oldest half from the handle map so a long-running engine does
     * not retain one LiveStream per utterance forever.
     */
    void noteStreamTerminal(std::uint64_t handle);

    std::shared_ptr<LiveStream> findStream(StreamHandle h) const;

    // -- Deadline watchdog (streams with StreamOptions::deadlineMs) --

    /**
     * Sleep until the earliest registered deadline, then foreclose
     * every due stream (see expireStream).  Started lazily by the
     * first deadline-carrying open(); parks on watchdogWake when the
     * heap is empty.
     */
    void watchdogLoop();

    /**
     * Foreclose one overdue stream: an Open stream is cancelled in
     * place (same transitions as cancel()), a Finishing stream has
     * its promise delivered now with an empty result -- the
     * coordinator's own later delivery is absorbed by finishLive's
     * terminal-state guard.  No-op if the stream already reached a
     * terminal state.
     */
    void expireStream(std::uint64_t handle);

    // -- The scheduler: coordinator tick loop + stage workers -------
    void coordinatorLoop();
    void stageWorkerLoop(unsigned slot);

    /**
     * Run fn(0..count-1) across the coordinator plus the stage
     * workers (static index partition) and wait for completion.
     * Serves the advance and consume stages and, from tick(), the
     * BatchScorer's row-slab fanout.  Coordinator-only; not
     * reentrant.
     */
    void runStage(std::size_t count,
                  const std::function<void(std::size_t)> &fn);

    /**
     * The frame clock: while every session in @p active is an Open
     * live stream holding at most one chunk, and some but not all of
     * them hold one, wait until the rest catch up or the oldest
     * queued chunk is one frame shift old (see the file comment for
     * the exits).  Coordinator-only; takes mu, then each stream's mu
     * inside it.
     */
    void awaitFrameClock(const std::vector<ActiveSession> &active);

    /** @return chunks advanced + rows scored (0 = idle tick). */
    std::size_t tick(std::vector<ActiveSession> &active);

    /** Advance one active session by up to kChunksPerTick chunks. */
    void advanceActive(ActiveSession &as);

    std::unique_ptr<pipeline::AsrModel> ownedModel;
    const pipeline::AsrModel &model_;
    EngineOptions opts;

    mutable std::mutex mu;
    std::condition_variable workReady;  //!< queue/stream event or stop
    std::condition_variable queueIdle;  //!< no outstanding results
    std::deque<Job> queue;
    std::unordered_map<std::uint64_t, std::shared_ptr<LiveStream>>
        streams;                        //!< live + recent terminal
    /** Terminal handles, oldest first, awaiting eviction
     *  (EngineOptions::retiredHandleCap bounds the window). */
    std::deque<std::uint64_t> retiredHandles;
    /** Live streams not yet terminal: the admission count that
     *  open() holds to maxBatchSessions. */
    std::size_t liveOpen = 0;
    /** Saturation already warned about; rearmed when a slot frees,
     *  so sustained overload logs once per episode, not per open(). */
    bool capacityWarned = false;
    /**
     * Handle values are drawn from this monotonically increasing
     * 64-bit counter and NEVER recycled -- at one open() per
     * nanosecond the counter takes ~585 years to wrap -- so a handle
     * retained across its stream's eviction from the bounded terminal
     * window can only miss in `streams` (and hit the documented
     * invalid-handle degradation); it can never alias a younger
     * stream.  This is the generation check: the value IS the
     * generation.  Covered by
     * api_engine_test.EvictedHandleNeverAliasesALaterStream.
     */
    std::uint64_t nextHandle = 1;
    std::uint64_t nextSessionId = 0;
    std::uint64_t outstanding = 0;  //!< accepted, result not delivered
    std::uint64_t streamEvents = 0; //!< push/finish/cancel ticks
    bool stopping = false;

    /** One registered stream deadline (min-heap on `at`). */
    struct DeadlineEntry
    {
        std::chrono::steady_clock::time_point at;
        std::uint64_t handle = 0;

        friend bool
        operator>(const DeadlineEntry &a, const DeadlineEntry &b)
        {
            return a.at > b.at;
        }
    };
    /** Pending deadlines, earliest on top.  Guarded by mu; entries
     *  for already-terminal streams are harmless (expireStream
     *  no-ops on them). */
    std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                        std::greater<DeadlineEntry>>
        deadlines;
    std::condition_variable watchdogWake;  //!< new deadline or stop

    // Stage-dispatch state: the coordinator publishes a
    // (generation, fn, count) triple; each stage worker processes its
    // static index slice and reports done.  A new stage cannot start
    // until every worker reported, so no worker can ever observe a
    // stale fn.
    std::mutex stageMu;
    std::condition_variable stageReady;
    std::condition_variable stageDone;
    const std::function<void(std::size_t)> *stageFn = nullptr;
    std::size_t stageCount = 0;
    std::uint64_t stageGeneration = 0;
    unsigned stageWorkersDone = 0;
    bool stageStop = false;
    unsigned stageWorkerCount = 0;

    std::unique_ptr<server::BatchScorer> batchScorer;

    server::EngineStats stats_;
    std::chrono::steady_clock::time_point startTime;
    /**
     * Kept apart from the pool because shutdown order matters: the
     * stage workers must outlive the coordinator (it may have a
     * stage generation in flight that they have to complete), so
     * ~Engine joins it before setting stageStop.
     */
    std::thread coordinator;
    std::vector<std::thread> workers;  //!< stage workers
    /** Deadline enforcement; started by the first open() that
     *  carries a deadline, joined by ~Engine after drain(). */
    std::thread watchdog;
};

} // namespace asr::api

#endif // ASR_API_ENGINE_HH
