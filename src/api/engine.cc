#include "api/engine.hh"

#include <algorithm>
#include <utility>

#include "acoustic/backend.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "frontend/vad.hh"
#include "search/backend.hh"

namespace asr::api {

// ---------------------------------------------------------------------------
// Options.
// ---------------------------------------------------------------------------

std::string
EngineOptions::validate() const
{
    const std::string_view name = effectiveSearchBackend();
    if (!search::isBackendRegistered(name))
        return search::unknownBackendMessage(name);
    if (!acousticBackend.empty()) {
        acoustic::BackendKind kind;
        if (!acoustic::tryBackendKindFromName(acousticBackend, kind))
            return acoustic::unknownBackendMessage(acousticBackend);
    }
    return std::string();
}

namespace {

/** Validate before training: a typo must not cost a model build. */
std::unique_ptr<pipeline::AsrModel>
buildModel(const wfst::Wfst &net,
           const pipeline::AsrSystemConfig &model_cfg,
           const EngineOptions &opts)
{
    const std::string err = opts.validate();
    if (!err.empty())
        fatal("%s", err.c_str());
    pipeline::AsrSystemConfig cfg = model_cfg;
    if (!opts.acousticBackend.empty())
        cfg.acousticBackend =
            acoustic::backendKindFromName(opts.acousticBackend);
    return std::make_unique<pipeline::AsrModel>(net, cfg);
}

} // namespace

// ---------------------------------------------------------------------------
// Construction / teardown.
// ---------------------------------------------------------------------------

Engine::Engine(const wfst::Wfst &net,
               const pipeline::AsrSystemConfig &model_cfg,
               const EngineOptions &options)
    : ownedModel(buildModel(net, model_cfg, options)),
      model_(*ownedModel), opts(options),
      startTime(std::chrono::steady_clock::now())
{
    start();
}

Engine::Engine(const pipeline::AsrModel &model,
               const EngineOptions &options)
    : model_(model), opts(options),
      startTime(std::chrono::steady_clock::now())
{
    start();
}

void
Engine::start()
{
    const std::string err = opts.validate();
    if (!err.empty())
        fatal("%s", err.c_str());
    ASR_ASSERT(opts.numThreads >= 1, "need at least one worker");
    ASR_ASSERT(opts.maxBatchSessions >= 1,
               "need at least one coordinator session slot");
    ASR_ASSERT(opts.chunkSamples >= 1, "chunk must hold samples");
    ASR_ASSERT(opts.maxQueuedChunks >= 1,
               "backpressure bound must admit at least one chunk");
    ASR_ASSERT(opts.retiredHandleCap >= 1,
               "terminal-handle window must hold at least one handle");
    batchScorer = std::make_unique<server::BatchScorer>(model_);
    stageWorkerCount = opts.numThreads - 1;
    coordinator = std::thread([this] { coordinatorLoop(); });
    workers.reserve(stageWorkerCount);
    for (unsigned t = 1; t < opts.numThreads; ++t)
        workers.emplace_back([this, t] { stageWorkerLoop(t); });
}

Engine::~Engine()
{
    // Cancel every stream still Open: their sessions are abandoned,
    // blocked push() calls unblock, and drain() below cannot wait on
    // input that will never arrive.  (Finishing streams complete
    // normally; their futures stay valid.)
    std::vector<std::shared_ptr<LiveStream>> snapshot;
    {
        std::lock_guard<std::mutex> lock(mu);
        snapshot.reserve(streams.size());
        for (const auto &[handle, ls] : streams)
            snapshot.push_back(ls);
    }
    for (const std::shared_ptr<LiveStream> &ls : snapshot) {
        {
            std::lock_guard<std::mutex> lock(ls->mu);
            if (ls->lifecycle != StreamState::Open)
                continue;
            ls->cancelled = true;
            ls->lifecycle = StreamState::Cancelled;
            ls->chunks.clear();
        }
        ls->spaceReady.notify_all();
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        ++streamEvents;
    }
    workReady.notify_all();

    drain();
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    workReady.notify_all();
    watchdogWake.notify_all();
    if (watchdog.joinable())
        watchdog.join();
    // The stage workers must outlive the coordinator: it may be
    // mid-tick, about to publish a stage generation for the streams
    // cancelled above, and a worker that honoured stageStop before
    // processing that generation would strand runStage() waiting for
    // completions that never come.  So join the coordinator first --
    // it retires the cancelled sessions and exits once stopping is
    // visible -- and only then stop the (now guaranteed idle) stage
    // workers.
    if (coordinator.joinable())
        coordinator.join();
    {
        std::lock_guard<std::mutex> lock(stageMu);
        stageStop = true;
    }
    stageReady.notify_all();
    for (std::thread &w : workers)
        w.join();
}

// ---------------------------------------------------------------------------
// One-shot entry points.
// ---------------------------------------------------------------------------

std::future<pipeline::RecognitionResult>
Engine::submit(frontend::AudioSignal audio)
{
    std::future<pipeline::RecognitionResult> future;
    {
        std::lock_guard<std::mutex> lock(mu);
        ASR_ASSERT(!stopping, "submit after shutdown began");
        Job job;
        job.sessionId = nextSessionId++;
        job.audio = std::move(audio);
        job.submitted = std::chrono::steady_clock::now();
        future = job.promise.get_future();
        queue.push_back(std::move(job));
        ++outstanding;
    }
    workReady.notify_one();
    return future;
}

pipeline::RecognitionResult
Engine::recognize(const frontend::AudioSignal &audio)
{
    return submit(audio).get();
}

// ---------------------------------------------------------------------------
// Live streams.
// ---------------------------------------------------------------------------

StreamHandle
Engine::open(const StreamOptions &options, OpenStatus &status)
{
    StreamHandle h;
    status = OpenStatus::Ok;
    // Always-on misconfiguration is recoverable, like capacity
    // exhaustion below: reject with an invalid handle and a
    // diagnostic instead of killing a long-running server.  Unlike
    // capacity, it is *permanent* for these options -- retrying the
    // same open() can never succeed -- which is what
    // OpenStatus::InvalidOptions tells an embedding server.
    if (options.autoEndpoint &&
        !vad::isDetectorRegistered(options.endpoint.detector)) {
        warn("cannot open auto-endpointed stream: %s",
             vad::unknownDetectorMessage(options.endpoint.detector)
                 .c_str());
        status = OpenStatus::InvalidOptions;
        return h;
    }
    if (!options.wakeWord.empty() && !options.autoEndpoint) {
        warn("cannot open live stream: StreamOptions::wakeWord "
             "requires autoEndpoint (the gate feeds the endpointer)");
        status = OpenStatus::InvalidOptions;
        return h;
    }
    bool diagnose = false;
    {
        std::lock_guard<std::mutex> lock(mu);
        ASR_ASSERT(!stopping, "open after shutdown began");
        // Admission limit: one coordinator slot per live stream.
        // Beyond it an open stream would only absorb pushes until
        // backpressure stalls its client, so the open is refused
        // (recoverably) instead.  One-shot jobs do not count.
        if (liveOpen >= opts.maxBatchSessions) {
            h.value = 0;  // rejected; diagnosed below, off the lock
            diagnose = !capacityWarned;
            capacityWarned = true;
        } else {
            auto ls = std::make_shared<LiveStream>();
            ls->options = options;
            ls->opened = std::chrono::steady_clock::now();
            h.value = nextHandle++;
            ls->handle = h.value;
            ls->sessionId = nextSessionId++;
            streams.emplace(h.value, ls);
            ++liveOpen;
            if (options.deadlineMs > 0) {
                deadlines.push(DeadlineEntry{
                    ls->opened +
                        std::chrono::milliseconds(options.deadlineMs),
                    h.value});
                if (!watchdog.joinable())
                    watchdog =
                        std::thread([this] { watchdogLoop(); });
            }

            Job job;
            job.sessionId = ls->sessionId;
            job.submitted = ls->opened;
            job.live = std::move(ls);
            queue.push_back(std::move(job));
        }
    }
    if (h.value == 0) {
        // Recoverable client-side condition, not process death: a
        // long-running server embedding the engine must be able to
        // shed the excess stream and carry on.
        status = OpenStatus::Capacity;
        if (diagnose)
            warn("cannot open live stream: all %zu coordinator slots "
                 "hold open streams -- retry once one finishes, or "
                 "raise EngineOptions::maxBatchSessions",
                 opts.maxBatchSessions);
        return h;
    }
    if (options.degraded)
        stats_.recordDegradedStream();
    if (options.deadlineMs > 0)
        watchdogWake.notify_all();
    workReady.notify_one();
    return h;
}

std::shared_ptr<Engine::LiveStream>
Engine::findStream(StreamHandle h) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = streams.find(h.value);
    return it == streams.end() ? nullptr : it->second;
}

PushResult
Engine::pushFor(StreamHandle h, std::span<const float> samples,
                std::chrono::nanoseconds timeout)
{
    const std::shared_ptr<LiveStream> ls = findStream(h);
    if (!ls)
        return PushResult::Rejected;
    {
        std::unique_lock<std::mutex> lock(ls->mu);
        if (ls->lifecycle != StreamState::Open)
            return PushResult::Rejected;
        // Backpressure: a client producing faster than the engine
        // decodes parks here until the queue drains -- or until the
        // stream leaves Open under it (cancel *or* a racing
        // finish()), which must reject the chunk rather than decode
        // audio pushed after the stream closed.  A non-negative
        // timeout bounds the park: an event-loop thread serving many
        // connections gets WouldBlock back (chunk not queued) instead
        // of being wedged forever by one stalled stream.
        const auto space = [&] {
            return ls->lifecycle != StreamState::Open ||
                   ls->chunks.size() < opts.maxQueuedChunks;
        };
        if (timeout < std::chrono::nanoseconds::zero()) {
            ls->spaceReady.wait(lock, space);
        } else if (!ls->spaceReady.wait_for(lock, timeout, space)) {
            return PushResult::WouldBlock;
        }
        if (ls->lifecycle != StreamState::Open)
            return PushResult::Rejected;
        ls->chunks.emplace_back(samples.begin(), samples.end());
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        ++streamEvents;
    }
    workReady.notify_all();
    return PushResult::Ok;
}

std::vector<wfst::WordId>
Engine::partial(StreamHandle h) const
{
    const std::shared_ptr<LiveStream> ls = findStream(h);
    if (!ls)
        return {};
    std::lock_guard<std::mutex> lock(ls->mu);
    return ls->lastPartial;
}

std::future<pipeline::RecognitionResult>
Engine::finish(StreamHandle h)
{
    const std::shared_ptr<LiveStream> ls = findStream(h);
    if (!ls)
        return {};  // unknown/retired handle: invalid future
    // Count the result as outstanding *before* closed becomes
    // observable: the moment the coordinator sees closed it may
    // deliver and decrement, and drain() must never see that
    // decrement first.
    {
        std::lock_guard<std::mutex> lock(mu);
        ++outstanding;
    }
    std::future<pipeline::RecognitionResult> future;
    bool accepted = false;
    {
        std::lock_guard<std::mutex> lock(ls->mu);
        if (ls->lifecycle == StreamState::Open) {
            accepted = true;
            ls->closed = true;
            ls->lifecycle = StreamState::Finishing;
            ls->closedAt = std::chrono::steady_clock::now();
            future = ls->promise.get_future();
        }
    }
    if (!accepted) {
        // Lost a race against cancel()/an earlier finish(): undo the
        // provisional outstanding count and degrade cleanly.
        std::lock_guard<std::mutex> lock(mu);
        --outstanding;
        if (outstanding == 0)
            queueIdle.notify_all();
        return {};
    }
    ls->spaceReady.notify_all();  // backpressured pushers must recheck
    // The streamEvents bump must come *after* closed is set (like
    // push()/cancel(), which mutate stream state before bumping):
    // the coordinator samples the counter before reading
    // stream state, so an event bumped before its state change can
    // be consumed by a tick that sees nothing, and the coordinator
    // would then park with no further wakeup coming.
    {
        std::lock_guard<std::mutex> lock(mu);
        ++streamEvents;
    }
    workReady.notify_all();
    return future;
}

bool
Engine::cancel(StreamHandle h)
{
    const std::shared_ptr<LiveStream> ls = findStream(h);
    if (!ls)
        return false;
    {
        std::lock_guard<std::mutex> lock(ls->mu);
        if (ls->lifecycle != StreamState::Open)
            return false;
        ls->cancelled = true;
        ls->lifecycle = StreamState::Cancelled;
        ls->chunks.clear();
    }
    ls->spaceReady.notify_all();
    noteStreamTerminal(ls->handle);
    {
        std::lock_guard<std::mutex> lock(mu);
        ++streamEvents;
    }
    workReady.notify_all();
    return true;
}

void
Engine::noteStreamTerminal(std::uint64_t handle)
{
    std::lock_guard<std::mutex> lock(mu);
    ASR_ASSERT(liveOpen > 0, "terminal stream without an open one");
    --liveOpen;
    capacityWarned = false;  // a slot freed: rearm the diagnostic
    retiredHandles.push_back(handle);
    if (retiredHandles.size() <= opts.retiredHandleCap)
        return;
    // Evict the oldest half in one sweep so a long-running engine
    // retains a bounded window of queryable terminal handles instead
    // of one LiveStream per utterance forever.  Eviction can never
    // alias a live stream: handle values are monotonic and never
    // recycled (see nextHandle), so an evicted value simply misses
    // in `streams` from here on.
    const std::size_t sweep =
        std::max<std::size_t>(1, opts.retiredHandleCap / 2);
    for (std::size_t i = 0; i < sweep; ++i) {
        streams.erase(retiredHandles.front());
        retiredHandles.pop_front();
    }
}

StreamState
Engine::state(StreamHandle h) const
{
    const std::shared_ptr<LiveStream> ls = findStream(h);
    if (!ls)
        return StreamState::Done;
    std::lock_guard<std::mutex> lock(ls->mu);
    return ls->lifecycle;
}

bool
Engine::deadlineExpired(StreamHandle h) const
{
    const std::shared_ptr<LiveStream> ls = findStream(h);
    if (!ls)
        return false;
    std::lock_guard<std::mutex> lock(ls->mu);
    return ls->deadlineExpired;
}

// ---------------------------------------------------------------------------
// Deadline watchdog.
// ---------------------------------------------------------------------------

void
Engine::watchdogLoop()
{
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        if (stopping)
            return;
        if (deadlines.empty()) {
            // Spurious wakes are harmless: the loop re-examines
            // stopping and the heap every time around.
            watchdogWake.wait(lock);
            continue;
        }
        const auto next = deadlines.top().at;
        if (next > std::chrono::steady_clock::now()) {
            // Plain wait_until, no predicate: a notify for a *new,
            // earlier* deadline must re-evaluate the heap top, not
            // resume waiting for the old one.
            watchdogWake.wait_until(lock, next);
            continue;
        }
        const auto now = std::chrono::steady_clock::now();
        std::vector<std::uint64_t> due;
        while (!deadlines.empty() && deadlines.top().at <= now) {
            due.push_back(deadlines.top().handle);
            deadlines.pop();
        }
        lock.unlock();
        for (const std::uint64_t handle : due)
            expireStream(handle);
        lock.lock();
    }
}

void
Engine::expireStream(std::uint64_t handle)
{
    const std::shared_ptr<LiveStream> ls =
        findStream(StreamHandle{handle});
    if (!ls)
        return;  // already terminal and evicted
    bool expired_open = false;
    bool expired_finishing = false;
    {
        std::lock_guard<std::mutex> lock(ls->mu);
        if (ls->lifecycle == StreamState::Open) {
            // Exactly cancel()'s transitions, plus the expiry mark:
            // the coordinator abandons the session, pushes start
            // rejecting, and the net layer can tell "deadline" from
            // "client cancelled".
            ls->deadlineExpired = true;
            ls->cancelled = true;
            ls->lifecycle = StreamState::Cancelled;
            ls->chunks.clear();
            expired_open = true;
        } else if (ls->lifecycle == StreamState::Finishing) {
            // Deliver the future *now* with an empty result; the
            // coordinator still decoding the tail hits finishLive's
            // terminal guard and drops its late result.
            ls->deadlineExpired = true;
            ls->lifecycle = StreamState::Done;
            expired_finishing = true;
        }
    }
    if (!expired_open && !expired_finishing)
        return;
    stats_.recordDeadlineExpired();
    ls->spaceReady.notify_all();
    noteStreamTerminal(ls->handle);
    if (expired_finishing) {
        pipeline::RecognitionResult result;
        result.sessionId = ls->sessionId;
        ls->promise.set_value(std::move(result));
        {
            std::lock_guard<std::mutex> lock(mu);
            --outstanding;
            if (outstanding == 0)
                queueIdle.notify_all();
        }
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        ++streamEvents;
    }
    workReady.notify_all();
}

// ---------------------------------------------------------------------------
// Engine-wide operations.
// ---------------------------------------------------------------------------

void
Engine::drain()
{
    std::unique_lock<std::mutex> lock(mu);
    queueIdle.wait(lock, [this] { return outstanding == 0; });
}

server::EngineSnapshot
Engine::stats() const
{
    return stats_.snapshot(secondsSince(startTime));
}

std::uint64_t
Engine::submittedCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return nextSessionId;
}

server::SessionConfig
Engine::sessionConfigFor(const Job &job) const
{
    if (!job.live) {
        // Mirror the batch path's front-end check: the session
        // consumes raw samples, so a rate mismatch would silently
        // skew framing and every derived stat (audioSeconds, RTF,
        // throughput).  Live streams push bare samples, which are
        // defined to be at the model's rate.
        ASR_ASSERT(job.audio.sampleRate ==
                       model_.mfcc().config().sampleRate,
                   "audio sample rate %u does not match the "
                   "model's %u",
                   job.audio.sampleRate,
                   model_.mfcc().config().sampleRate);
    }
    server::SessionConfig scfg;
    // The one knob hand-off in the whole engine: a slice assignment
    // of the shared SessionKnobs, so a knob added there reaches the
    // session without any per-field copy-through to forget.
    static_cast<server::SessionKnobs &>(scfg) =
        static_cast<const server::SessionKnobs &>(opts);
    scfg.id = job.sessionId;
    scfg.baseSeed = opts.baseSeed;
    // Every session is scored by the coordinator's BatchScorer.
    scfg.deferScoring = true;
    if (job.live) {
        // Per-stream degradation overrides (the overload layer's
        // lever): tighter search on this stream only, engine-wide
        // knobs untouched.
        const StreamOptions &so = job.live->options;
        if (so.beam > 0.0f)
            scfg.beam = so.beam;
        if (so.maxActive > 0)
            scfg.maxActive = so.maxActive;
    }
    return scfg;
}

server::SegmentedConfig
Engine::segmentedConfigFor(const Job &job) const
{
    server::SegmentedConfig cfg;
    cfg.session = sessionConfigFor(job);
    cfg.endpoint = job.live->options.endpoint;
    cfg.endpoint.sampleRate = model_.mfcc().config().sampleRate;
    cfg.wakeWord = job.live->options.wakeWord;
    cfg.wakeThreshold = job.live->options.wakeThreshold;
    return cfg;
}

server::SegmentedSession::SegmentCallback
Engine::segmentSinkFor(const std::shared_ptr<LiveStream> &ls)
{
    // Each segment is a served utterance: it enters the engine
    // aggregates like any finished decode (latency 0: the endpoint
    // *is* the delivery, there is no queue wait to measure).  The
    // user callback runs last, outside every engine lock.
    return [this, ls](const pipeline::RecognitionResult &result,
                      const server::SegmentBoundary &boundary) {
        stats_.recordSegment();
        recordResult(result, 0.0);
        if (ls->options.onSegment)
            ls->options.onSegment(result, boundary);
    };
}

void
Engine::recordResult(const pipeline::RecognitionResult &result,
                     double latency_seconds)
{
    stats_.recordUtterance(server::UtteranceSample{
        result.audioSeconds,
        result.frontendSeconds + result.acousticSeconds +
            result.searchSeconds,
        latency_seconds, result.searchSeconds,
        result.acousticSeconds,
        result.searchStats.arenaPeakEntries,
        result.searchStats.arenaGcRuns,
        result.searchStats.bpAppendsSkipped,
        result.searchStats.framesDecoded,
        result.searchStats.graphBytesTouched});
}

void
Engine::publishPartial(LiveStream &ls,
                       std::vector<wfst::WordId> partial)
{
    std::function<void(const std::vector<wfst::WordId> &)> callback;
    {
        std::lock_guard<std::mutex> lock(ls.mu);
        if (partial == ls.lastPartial)
            return;
        ls.lastPartial = partial;
        if (!ls.firstPartialSeen && !partial.empty()) {
            ls.firstPartialSeen = true;
            stats_.recordFirstPartial(secondsSince(ls.opened));
        }
        callback = ls.options.onPartial;
    }
    // Outside every lock: the callback may be arbitrarily slow.
    if (callback)
        callback(partial);
}

void
Engine::finishLive(LiveStream &ls,
                   pipeline::RecognitionResult result,
                   bool record_stats)
{
    {
        std::lock_guard<std::mutex> lock(ls.mu);
        // Whoever moves the stream to Done delivers -- exactly once.
        // The loser (the coordinator, when the deadline watchdog
        // already foreclosed and delivered the Finishing stream)
        // drops its late result here instead of double-setting the
        // promise.
        if (ls.lifecycle == StreamState::Done)
            return;
        ls.lifecycle = StreamState::Done;
    }
    if (record_stats)
        recordResult(result, secondsSince(ls.closedAt));
    noteStreamTerminal(ls.handle);
    ls.promise.set_value(std::move(result));
    {
        std::lock_guard<std::mutex> lock(mu);
        --outstanding;
        if (outstanding == 0)
            queueIdle.notify_all();
    }
}

// ---------------------------------------------------------------------------
// The scheduler: coordinator + stage workers.  One-shot jobs and live
// streams share the tick loop; live streams contribute whatever
// their inbound queues hold, so their frames join the cross-session
// GEMM like everyone else's.
// ---------------------------------------------------------------------------

void
Engine::coordinatorLoop()
{
    std::vector<ActiveSession> active;
    std::uint64_t seenEvents = 0;
    for (;;) {
        // Admit new jobs up to the session cap; park when idle.
        {
            std::unique_lock<std::mutex> lock(mu);
            if (active.empty()) {
                workReady.wait(lock, [this] {
                    return stopping || !queue.empty();
                });
                if (queue.empty())
                    return;  // stopping && drained
            }
            while (active.size() < opts.maxBatchSessions &&
                   !queue.empty()) {
                ActiveSession as;
                as.job = std::move(queue.front());
                queue.pop_front();
                active.push_back(std::move(as));
            }
            seenEvents = streamEvents;
        }
        for (ActiveSession &as : active) {
            if (as.session || as.segmented || as.cancelled)
                continue;
            if (as.job.live) {
                // A stream cancelled while still queued never needs
                // the model-scale session setup it would immediately
                // discard.
                {
                    std::lock_guard<std::mutex> lock(
                        as.job.live->mu);
                    if (as.job.live->cancelled) {
                        as.cancelled = true;
                        continue;
                    }
                }
                if (as.job.live->options.autoEndpoint) {
                    as.segmented =
                        std::make_unique<server::SegmentedSession>(
                            model_, segmentedConfigFor(as.job));
                    as.segmented->onSegment(
                        segmentSinkFor(as.job.live));
                    continue;
                }
            }
            as.session = std::make_unique<server::StreamingSession>(
                model_, sessionConfigFor(as.job));
        }

        const std::size_t work = tick(active);

        // Retire finished and cancelled sessions.
        std::size_t retired = 0;
        for (ActiveSession &as : active) {
            if (as.cancelled) {
                // Cancelled-while-queued streams never got a session;
                // they still count as retired so erase_if runs.
                as.session.reset();
                as.segmented.reset();
                ++retired;
                continue;
            }
            if (as.segmented) {
                // A pending SegmentEnd resolves here, serially on
                // the coordinator, once its rows are scored:
                // finalizeSegment fires the segment sink and pumps
                // buffered endpointer events -- possibly opening the
                // next segment, whose rows the next tick scores.
                // That pump is progress the park condition below
                // must see, so it counts into `retired`.
                if (as.segmented->segmentClosing() &&
                    as.segmented->active()->pendingRows() == 0) {
                    as.segmented->finalizeSegment();
                    ++retired;
                }
                if (as.finishing && as.segmented->finishReady()) {
                    if (as.segmented->gateOpened())
                        stats_.recordGateOpen();
                    const bool no_segments =
                        as.segmented->segmentsFinalized() == 0;
                    finishLive(*as.job.live,
                               as.segmented->finalizeFinish(),
                               /*record_stats=*/no_segments);
                    as.segmented.reset();
                    ++retired;
                }
                continue;
            }
            if (!as.finishing || as.session->pendingRows() > 0)
                continue;
            pipeline::RecognitionResult result =
                as.session->finalizeFinish();
            if (as.job.live) {
                finishLive(*as.job.live, std::move(result));
            } else {
                recordResult(result, secondsSince(as.job.submitted));
                as.job.promise.set_value(std::move(result));
                {
                    std::lock_guard<std::mutex> lock(mu);
                    --outstanding;
                    if (outstanding == 0)
                        queueIdle.notify_all();
                }
            }
            as.session.reset();
            ++retired;
        }
        if (retired > 0)
            std::erase_if(active, [](const ActiveSession &as) {
                return !as.session && !as.segmented;
            });

        // An all-idle tick (live streams with empty inbound queues)
        // must not busy-spin: park until a push/finish/cancel bumps
        // streamEvents, a new job arrives, or shutdown begins.
        if (work == 0 && retired == 0) {
            std::unique_lock<std::mutex> lock(mu);
            workReady.wait(lock, [&] {
                return stopping || !queue.empty() ||
                       streamEvents != seenEvents;
            });
            if (stopping && queue.empty() && active.empty())
                return;
        }
    }
}

void
Engine::advanceActive(ActiveSession &as)
{
    as.tickWork = 0;
    if (as.finishing || as.cancelled)
        return;
    const std::size_t max_chunks =
        std::max<std::size_t>(1, opts.chunksPerTick);

    if (as.job.live) {
        LiveStream &ls = *as.job.live;
        bool drained_closed = false;
        for (std::size_t c = 0; c < max_chunks; ++c) {
            std::vector<float> chunk;
            {
                std::lock_guard<std::mutex> lock(ls.mu);
                if (ls.cancelled) {
                    as.cancelled = true;
                    return;
                }
                if (ls.chunks.empty()) {
                    drained_closed = ls.closed;
                    break;
                }
                chunk = std::move(ls.chunks.front());
                ls.chunks.pop_front();
            }
            ls.spaceReady.notify_one();
            if (as.segmented)
                // Accumulates rows in the active segment's session
                // (a deferred SegmentEnd parks event pumping until
                // the coordinator's finalizeSegment; audio keeps
                // buffering in the endpointer meanwhile).
                as.segmented->pushAudio(chunk);
            else
                as.session->pushAudio(chunk);
            ++as.tickWork;
        }
        if (as.tickWork == 0 && drained_closed) {
            if (as.segmented)
                as.segmented->beginFinish();
            else
                as.session->flushPending();
            as.finishing = true;
            as.tickWork = 1;  // the flush can pend tail frames
        }
        return;
    }

    const std::vector<float> &samples = as.job.audio.samples;
    if (as.offset >= samples.size()) {
        as.session->flushPending();
        as.finishing = true;
        as.tickWork = 1;
        return;
    }
    // One chunkSamples-sized push at a time (the push sequence a
    // live client streaming the same audio would produce), several
    // per tick.
    for (std::size_t c = 0;
         c < max_chunks && as.offset < samples.size(); ++c) {
        const std::size_t len = std::min(
            opts.chunkSamples, samples.size() - as.offset);
        as.session->pushAudio(std::span<const float>(
            samples.data() + as.offset, len));
        as.offset += len;
        ++as.tickWork;
    }
}

std::size_t
Engine::tick(std::vector<ActiveSession> &active)
{
    // Chaos seam: a scheduling hiccup at the worst place -- between
    // admission and the stages -- so the chaos suite can prove slow
    // ticks only add latency, never corrupt lockstep dispatch.
    fault::stall("api.engine.tick.stall");
    // Stage 1: advance every session (one-shot chunks or live-queue
    // chunks; flush the tail once input is exhausted).  Produces
    // pending spliced frames; embarrassingly parallel across
    // sessions.
    const std::function<void(std::size_t)> advance =
        [this, &active](std::size_t i) {
            advanceActive(active[i]);
        };
    runStage(active.size(), advance);

    std::size_t work = 0;
    for (const ActiveSession &as : active)
        work += as.tickWork;

    // Stage 2: one cross-session batched forward pass (coordinator).
    // An auto-endpointed stream contributes its active segment's
    // session -- null between segments, which the scorer tolerates.
    std::vector<server::StreamingSession *> sessions;
    sessions.reserve(active.size());
    for (ActiveSession &as : active)
        sessions.push_back(as.segmented ? as.segmented->active()
                                        : as.session.get());
    const std::size_t rows = batchScorer->score(sessions);
    if (rows > 0)
        stats_.recordDnnBatch(rows,
                              batchScorer->lastForwardSeconds());
    work += rows;

    // Stage 3: feed each session's scores to its private search;
    // again parallel across sessions (disjoint rows, immutable
    // score matrix).  Live streams publish their refreshed partial
    // right here, on the stage worker that advanced them.
    const std::function<void(std::size_t)> consume =
        [this, &active](std::size_t i) {
            ActiveSession &as = active[i];
            if (as.cancelled)
                return;
            server::StreamingSession *session =
                as.segmented ? as.segmented->active()
                             : as.session.get();
            if (session && session->pendingRows() > 0)
                session->consumePendingScores(
                    batchScorer->scores(), batchScorer->base(i),
                    batchScorer->secondsShare(i));
            if (as.job.live && !as.finishing)
                publishPartial(*as.job.live,
                               as.segmented
                                   ? as.segmented->partialWords()
                                   : as.session->partialWords());
        };
    runStage(active.size(), consume);
    return work;
}

void
Engine::runStage(std::size_t count,
                 const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (stageWorkerCount == 0) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(stageMu);
        stageFn = &fn;
        stageCount = count;
        stageWorkersDone = 0;
        ++stageGeneration;
    }
    stageReady.notify_all();

    // The coordinator is participant 0 of stageWorkerCount + 1.
    const std::size_t stride = stageWorkerCount + 1;
    for (std::size_t i = 0; i < count; i += stride)
        fn(i);

    std::unique_lock<std::mutex> lock(stageMu);
    stageDone.wait(lock, [this] {
        return stageWorkersDone == stageWorkerCount;
    });
    stageFn = nullptr;
}

void
Engine::stageWorkerLoop(unsigned slot)
{
    std::uint64_t seen = 0;
    const std::size_t stride = stageWorkerCount + 1;
    for (;;) {
        const std::function<void(std::size_t)> *fn;
        std::size_t count;
        {
            std::unique_lock<std::mutex> lock(stageMu);
            stageReady.wait(lock, [this, seen] {
                return stageStop || stageGeneration != seen;
            });
            if (stageStop)
                return;
            seen = stageGeneration;
            fn = stageFn;
            count = stageCount;
        }
        for (std::size_t i = slot; i < count; i += stride)
            (*fn)(i);
        {
            std::lock_guard<std::mutex> lock(stageMu);
            ++stageWorkersDone;
        }
        stageDone.notify_all();
    }
}

} // namespace asr::api
