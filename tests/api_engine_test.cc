/**
 * @file
 * Tests for the unified streaming engine (api::Engine): one public
 * path, one scheduler, for one-shot, live-streaming and always-on
 * serving.
 *
 *  - Bit-identity: a live stream pushed in arbitrary chunks and a
 *    one-shot submit both produce the words/score of an
 *    inline-scoring StreamingSession over the same audio (the
 *    reference decoder), at several thread counts and coordinator
 *    slot counts, and so does an engine that trains its own model.
 *  - Stream lifecycle edges: cancel mid-utterance (and while still
 *    queued), push-after-finish rejected, zero-frame streams,
 *    double-finish discipline, the maxBatchSessions admission limit
 *    (Capacity, recovering on cancel or finish, blind to one-shot
 *    jobs), destruction with open + finishing streams.
 *  - Concurrency: >= 8 interleaved live streams over a small worker
 *    pool (TSan runs this via the concurrency label),
 *    with live frames provably reaching the cross-session batch
 *    scorer (mean batch rows > 1).
 *  - Options validation: unknown search/acoustic backend names are
 *    rejected with diagnostics listing the registered ones.
 *  - EngineStats: time-to-first-partial is recorded and rendered.
 *  - Deadlines: the watchdog forecloses abandoned streams at their
 *    StreamOptions::deadlineMs, bounds the finish wait, never fires
 *    on prompt streams, and survives a three-way cancel vs deadline
 *    vs finish race (TSan-checked in CI).
 */

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "server/session.hh"
#include "wfst/generate.hh"

using namespace asr;
using api::Engine;
using api::EngineOptions;
using api::StreamHandle;
using api::StreamState;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

[[maybe_unused]] const auto *env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

constexpr unsigned kPhonemes = 8;

/** Shared net + trained model for the whole suite. */
class ApiEngineTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        wfst::GeneratorConfig gcfg;
        gcfg.numStates = 200;
        gcfg.numPhonemes = kPhonemes;
        gcfg.numWords = 40;
        gcfg.seed = 2027;
        net = new wfst::Wfst(wfst::generateWfst(gcfg));
        model = new pipeline::AsrModel(*net, modelConfig());
    }

    static void
    TearDownTestSuite()
    {
        delete model;
        delete net;
        model = nullptr;
        net = nullptr;
    }

    static pipeline::AsrSystemConfig
    modelConfig()
    {
        pipeline::AsrSystemConfig mcfg;
        mcfg.numPhonemes = kPhonemes;
        mcfg.hiddenLayers = {32};
        mcfg.trainUtterPerPhoneme = 8;
        mcfg.trainEpochs = 8;
        mcfg.beam = 14.0f;
        mcfg.seed = 53;
        return mcfg;
    }

    static frontend::AudioSignal
    testAudio(std::uint64_t seed, unsigned phones = 6)
    {
        Rng rng(seed);
        std::vector<std::uint32_t> seq;
        for (unsigned i = 0; i < phones; ++i)
            seq.push_back(1 + std::uint32_t(rng.below(kPhonemes)));
        return model->synthesizer().synthesize(seq, 3);
    }

    /**
     * The reference decoder: an inline-scoring StreamingSession over
     * @p audio as session @p id (the engine assigns ids in
     * submit/open order from 0).
     */
    static pipeline::RecognitionResult
    referenceDecode(const frontend::AudioSignal &audio,
                    std::uint64_t id = 0)
    {
        server::SessionConfig cfg;
        cfg.id = id;
        server::StreamingSession session(*model, cfg);
        session.pushAudio(audio.samples);
        return session.finish();
    }

    /** Stream @p audio through a live handle in @p chunk chunks. */
    static pipeline::RecognitionResult
    streamThrough(Engine &engine, const frontend::AudioSignal &audio,
                  std::size_t chunk)
    {
        const StreamHandle h = engine.open();
        const std::vector<float> &s = audio.samples;
        for (std::size_t base = 0; base < s.size(); base += chunk) {
            const std::size_t len = std::min(chunk, s.size() - base);
            EXPECT_TRUE(engine.push(
                h, std::span<const float>(s.data() + base, len)));
        }
        return engine.finish(h).get();
    }

    static wfst::Wfst *net;
    static pipeline::AsrModel *model;
};

wfst::Wfst *ApiEngineTest::net = nullptr;
pipeline::AsrModel *ApiEngineTest::model = nullptr;

} // namespace

// ---------------------------------------------------------------------------
// One public path: every entry style produces the same bits.
// ---------------------------------------------------------------------------

TEST_F(ApiEngineTest, LiveStreamMatchesOneShotForAnyChunking)
{
    const frontend::AudioSignal audio = testAudio(7);
    const auto want = referenceDecode(audio);
    for (const unsigned threads : {1u, 3u}) {
        for (const std::size_t slots : {std::size_t(1),
                                        std::size_t(32)}) {
            SCOPED_TRACE(testing::Message() << threads << " threads, "
                                            << slots << " slots");
            EngineOptions opts;
            opts.numThreads = threads;
            opts.maxBatchSessions = slots;
            Engine engine(*model, opts);

            const auto oneShot = engine.recognize(audio);
            EXPECT_EQ(oneShot.words, want.words);
            EXPECT_EQ(oneShot.score, want.score);
            for (const std::size_t chunk :
                 {std::size_t(160), std::size_t(997),
                  std::size_t(1) << 20}) {
                const auto streamed =
                    streamThrough(engine, audio, chunk);
                EXPECT_EQ(streamed.words, want.words)
                    << "chunk " << chunk;
                EXPECT_EQ(streamed.score, want.score)
                    << "chunk " << chunk;
            }
        }
    }
}

TEST_F(ApiEngineTest, OwnedModelEngineMatchesTheInlineReference)
{
    // The model-building constructor trains its own model from the
    // same config and seed, so its (deterministic) training lands on
    // the shared model's weights and both entry styles reproduce the
    // reference bits.
    const frontend::AudioSignal audio = testAudio(11);
    const auto want = referenceDecode(audio);

    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*net, modelConfig(), opts);
    const auto oneShot = engine.recognize(audio);
    EXPECT_EQ(oneShot.words, want.words);
    EXPECT_EQ(oneShot.score, want.score);
    EXPECT_NE(&engine.model(), model);

    const auto streamed = streamThrough(engine, audio, 160);
    EXPECT_EQ(streamed.words, want.words);
    EXPECT_EQ(streamed.score, want.score);
}

TEST_F(ApiEngineTest, SearchBackendNameSelectsTheBackend)
{
    const frontend::AudioSignal audio = testAudio(13);

    EngineOptions viterbi;
    viterbi.searchBackend = "viterbi";
    Engine sw(*model, viterbi);
    const auto r_sw = sw.recognize(audio);

    EngineOptions baseline;
    baseline.searchBackend = "baseline";
    Engine base(*model, baseline);
    const auto r_base = base.recognize(audio);

    EngineOptions accel;
    accel.searchBackend = "accel";
    accel.runTiming = true;
    Engine hw(*model, accel);
    const auto r_hw = hw.recognize(audio);

    // The optimized and baseline software decoders are bit-identical
    // by contract; the accel agrees to float tolerance and reports
    // cycle stats.
    EXPECT_EQ(r_base.words, r_sw.words);
    EXPECT_EQ(r_base.score, r_sw.score);
    EXPECT_EQ(r_hw.words, r_sw.words);
    EXPECT_NEAR(r_hw.score, r_sw.score, 1e-3f);
    EXPECT_GT(r_hw.accelStats.cycles, 0u);
}

// ---------------------------------------------------------------------------
// Stream lifecycle edges.
// ---------------------------------------------------------------------------

TEST_F(ApiEngineTest, CancelMidUtteranceAbandonsOnlyThatStream)
{
    const frontend::AudioSignal audio = testAudio(17);
    const auto reference = referenceDecode(audio, 1);
    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);

    const StreamHandle doomed = engine.open();
    const StreamHandle kept = engine.open();
    const std::vector<float> &s = audio.samples;
    // Feed both halfway, then cancel one mid-utterance.
    std::size_t base = 0;
    for (; base < s.size() / 2; base += 160) {
        const std::size_t len =
            std::min<std::size_t>(160, s.size() - base);
        EXPECT_TRUE(engine.push(
            doomed, std::span<const float>(s.data() + base, len)));
        EXPECT_TRUE(engine.push(
            kept, std::span<const float>(s.data() + base, len)));
    }
    EXPECT_TRUE(engine.cancel(doomed));
    EXPECT_EQ(engine.state(doomed), StreamState::Cancelled);
    // Cancelled means cancelled: no push, no second cancel, and a
    // late finish() degrades to an invalid future.
    EXPECT_FALSE(engine.push(doomed, s));
    EXPECT_FALSE(engine.cancel(doomed));
    EXPECT_FALSE(engine.finish(doomed).valid());

    // The surviving stream is unaffected: finish feeding and it must
    // land on the reference bits.
    for (; base < s.size(); base += 160) {
        const std::size_t len =
            std::min<std::size_t>(160, s.size() - base);
        EXPECT_TRUE(engine.push(
            kept, std::span<const float>(s.data() + base, len)));
    }
    const auto survived = engine.finish(kept).get();
    EXPECT_EQ(survived.words, reference.words);
    EXPECT_EQ(survived.score, reference.score);
    EXPECT_EQ(engine.state(kept), StreamState::Done);

    // And the engine still serves one-shots afterwards.
    const auto after = engine.recognize(audio);
    EXPECT_EQ(after.words, reference.words);
    EXPECT_EQ(after.score, reference.score);
}

TEST_F(ApiEngineTest, PushAfterFinishIsRejected)
{
    EngineOptions opts;
    Engine engine(*model, opts);
    const frontend::AudioSignal audio = testAudio(19);

    const StreamHandle h = engine.open();
    EXPECT_TRUE(engine.push(h, audio.samples));
    auto future = engine.finish(h);
    // From the moment finish() returns, the stream no longer accepts
    // audio -- even while the tail is still decoding.
    EXPECT_FALSE(engine.push(h, audio.samples));
    const auto r = future.get();
    EXPECT_FALSE(engine.push(h, audio.samples));
    EXPECT_EQ(engine.state(h), StreamState::Done);
    EXPECT_GT(r.audioSeconds, 0.0);
    // Cancel and a second finish after finish are too late, and
    // unknown handles are rejected, not crashed on.
    EXPECT_FALSE(engine.cancel(h));
    EXPECT_FALSE(engine.finish(h).valid());
    EXPECT_FALSE(engine.push(StreamHandle{987654}, audio.samples));
    EXPECT_TRUE(engine.partial(StreamHandle{987654}).empty());
    EXPECT_FALSE(engine.finish(StreamHandle{987654}).valid());
}

TEST_F(ApiEngineTest, ZeroFrameStream)
{
    EngineOptions opts;
    Engine engine(*model, opts);

    // finish() immediately after open(): no audio at all.
    const StreamHandle empty = engine.open();
    const auto r = engine.finish(empty).get();
    EXPECT_TRUE(r.words.empty());
    EXPECT_EQ(r.audioSeconds, 0.0);
    EXPECT_EQ(r.score, referenceDecode({}).score);

    // A push shorter than one analysis window: zero frames too.
    const StreamHandle tiny = engine.open();
    frontend::AudioSignal blip;
    blip.samples.assign(399, 0.01f);
    EXPECT_TRUE(engine.push(tiny, blip.samples));
    const auto r2 = engine.finish(tiny).get();
    EXPECT_TRUE(r2.words.empty());
    EXPECT_GT(r2.audioSeconds, 0.0);
    EXPECT_EQ(r2.score, referenceDecode(blip, 1).score);
}

TEST_F(ApiEngineTest, DestructionCancelsOpenStreams)
{
    // Coordinator + stage workers mid-tick on the cancelled sessions:
    // the shutdown ordering that once could deadlock the destructor's
    // join() when stage workers honoured stageStop with a generation
    // pending.
    const frontend::AudioSignal audio = testAudio(23);
    // Destroy while streams are Open with work still queued: the
    // engine is mid-tick when the destructor cancels them, so drain()
    // has nothing to wait for and shutdown races the in-flight stage
    // machinery.
    EngineOptions opts;
    opts.numThreads = 3;
    {
        Engine engine(*model, opts);
        const StreamHandle open1 = engine.open();
        const StreamHandle open2 = engine.open();
        const std::vector<float> &s = audio.samples;
        for (std::size_t base = 0; base < s.size(); base += 160) {
            const std::size_t len =
                std::min<std::size_t>(160, s.size() - base);
            EXPECT_TRUE(engine.push(
                open1, std::span<const float>(s.data() + base, len)));
            EXPECT_TRUE(engine.push(
                open2, std::span<const float>(s.data() + base, len)));
        }
        // No finish(): the destructor must cancel both, not hang.
    }

    // And with a Finishing stream alongside an Open one: drain()
    // must wait for (only) the finishing stream's result, which stays
    // valid across destruction.
    std::future<pipeline::RecognitionResult> finishing;
    {
        Engine engine(*model, opts);
        const StreamHandle open1 = engine.open();
        const StreamHandle open2 = engine.open();
        EXPECT_TRUE(engine.push(open1, audio.samples));
        EXPECT_TRUE(engine.push(open2, audio.samples));
        finishing = engine.finish(open2);
    }
    ASSERT_TRUE(finishing.valid());
    const auto r = finishing.get();
    EXPECT_GT(r.audioSeconds, 0.0);
    const auto want = referenceDecode(audio, 1);
    EXPECT_EQ(r.words, want.words);
    EXPECT_EQ(r.score, want.score);
}

TEST_F(ApiEngineTest, OpenBeyondMaxBatchSessionsIsRejected)
{
    // One coordinator slot per live stream: with maxBatchSessions = 1
    // the second open gets an invalid handle (a recoverable
    // condition for a server shedding load, not process death), and
    // every operation on it degrades cleanly.
    EngineOptions opts;
    opts.numThreads = 2;
    opts.maxBatchSessions = 1;
    Engine engine(*model, opts);
    const frontend::AudioSignal audio = testAudio(43);

    const StreamHandle a = engine.open();
    EXPECT_NE(a.value, 0u);
    const StreamHandle overflow = engine.open();
    EXPECT_EQ(overflow.value, 0u);
    EXPECT_FALSE(engine.push(overflow, audio.samples));
    EXPECT_FALSE(engine.finish(overflow).valid());
    EXPECT_FALSE(engine.cancel(overflow));

    // Cancelling a stream frees its slot for a fresh open()...
    EXPECT_TRUE(engine.cancel(a));
    const StreamHandle reopened = engine.open();
    EXPECT_NE(reopened.value, 0u);
    EXPECT_EQ(engine.open().value, 0u);
    EXPECT_TRUE(engine.push(reopened, audio.samples));
    const auto r = engine.finish(reopened).get();
    EXPECT_GT(r.audioSeconds, 0.0);

    // ...and so does finishing one: by the time its future resolves
    // the stream is Done and no longer holds the slot.
    const StreamHandle afterFinish = engine.open();
    EXPECT_NE(afterFinish.value, 0u);
    EXPECT_TRUE(engine.cancel(afterFinish));

    // One-shot jobs do not count toward the limit: a live open
    // succeeds while submitted jobs are still queued or decoding,
    // and every result lands on the reference bits.
    std::vector<std::future<pipeline::RecognitionResult>> jobs;
    for (unsigned j = 0; j < 4; ++j)
        jobs.push_back(engine.submit(audio));
    const StreamHandle live = engine.open();
    ASSERT_NE(live.value, 0u);
    EXPECT_TRUE(engine.push(live, audio.samples));
    const auto streamed = engine.finish(live).get();
    const auto want = referenceDecode(audio);
    EXPECT_EQ(streamed.words, want.words);
    EXPECT_EQ(streamed.score, want.score);
    for (auto &job : jobs) {
        const auto got = job.get();
        EXPECT_EQ(got.words, want.words);
        EXPECT_EQ(got.score, want.score);
    }
}

TEST_F(ApiEngineTest, InvalidHandleContractCoversEveryAccessor)
{
    // The documented StreamHandle contract (engine.hh): value 0 is
    // never issued, and every accessor degrades cleanly on invalid,
    // never-issued, or terminal handles.
    const frontend::AudioSignal audio = testAudio(61, 3);
    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);

    const StreamHandle defaulted;  // value == 0
    StreamHandle garbage;
    garbage.value = 0xDEADBEEFull;  // never issued
    for (const StreamHandle h : {defaulted, garbage}) {
        EXPECT_FALSE(engine.push(h, audio.samples));
        EXPECT_TRUE(engine.partial(h).empty());
        EXPECT_FALSE(engine.finish(h).valid());
        EXPECT_FALSE(engine.cancel(h));
        EXPECT_EQ(engine.state(h), StreamState::Done);
    }
    // The rejected finish() attempts above must not have leaked
    // outstanding-result accounting: drain() returns.
    engine.drain();

    // A finished (terminal but still-tracked) handle: same
    // degradation for mutators, state stays queryable.
    const StreamHandle done = engine.open();
    ASSERT_NE(done.value, 0u);
    EXPECT_TRUE(engine.push(done, audio.samples));
    ASSERT_TRUE(engine.finish(done).valid());
    engine.drain();
    EXPECT_EQ(engine.state(done), StreamState::Done);
    EXPECT_FALSE(engine.push(done, audio.samples));
    EXPECT_FALSE(engine.finish(done).valid());
    EXPECT_FALSE(engine.cancel(done));
    engine.drain();
}

TEST_F(ApiEngineTest, OpenStatusDistinguishesFailures)
{
    // The two open() rejections need different remedies -- Capacity
    // clears when a slot frees, InvalidOptions never does -- so a
    // server shedding load must be able to tell them apart without
    // parsing log text.
    EngineOptions opts;
    opts.numThreads = 1;
    opts.maxBatchSessions = 1;
    Engine engine(*model, opts);

    api::OpenStatus status = api::OpenStatus::InvalidOptions;
    const StreamHandle a = engine.open(api::StreamOptions(), status);
    ASSERT_NE(a.value, 0u);
    EXPECT_EQ(status, api::OpenStatus::Ok);

    // One coordinator slot, held by a: the next open is Capacity,
    // and recoverably so.
    const StreamHandle overflow =
        engine.open(api::StreamOptions(), status);
    EXPECT_EQ(overflow.value, 0u);
    EXPECT_EQ(status, api::OpenStatus::Capacity);
    EXPECT_TRUE(engine.cancel(a));
    const StreamHandle retried =
        engine.open(api::StreamOptions(), status);
    EXPECT_NE(retried.value, 0u);
    EXPECT_EQ(status, api::OpenStatus::Ok);
    EXPECT_TRUE(engine.cancel(retried));

    // Structurally bad options are permanent, not capacity: wake-word
    // gating without the endpointer it requires...
    api::StreamOptions gated;
    gated.wakeWord.assign(1600, 0.0f);
    const StreamHandle bad1 = engine.open(gated, status);
    EXPECT_EQ(bad1.value, 0u);
    EXPECT_EQ(status, api::OpenStatus::InvalidOptions);

    // ...and an endpointer detector that names no registered VAD.
    api::StreamOptions unknown;
    unknown.autoEndpoint = true;
    unknown.endpoint.detector = "no-such-detector";
    const StreamHandle bad2 = engine.open(unknown, status);
    EXPECT_EQ(bad2.value, 0u);
    EXPECT_EQ(status, api::OpenStatus::InvalidOptions);

    // The one-argument open() keeps its historical contract.
    const StreamHandle shim = engine.open();
    EXPECT_NE(shim.value, 0u);
    EXPECT_TRUE(engine.cancel(shim));
}

TEST_F(ApiEngineTest, PushForTimesOutInsteadOfBlocking)
{
    // An event loop cannot afford push()'s unbounded wait on a full
    // chunk queue.  Stream A's onPartial callback blocks until the
    // test releases it, which stalls the coordinator deterministically
    // (callbacks run on the tick's consume stage): stream B's inbound
    // queue never drains and fills after maxQueuedChunks chunks.
    EngineOptions opts;
    opts.numThreads = 1;
    opts.maxQueuedChunks = 4;
    Engine engine(*model, opts);
    // Ten phones: long enough that the mid-stream partial is
    // non-empty, which is what fires onPartial.
    const frontend::AudioSignal audio = testAudio(83, 10);
    const std::span<const float> chunk(audio.samples.data(), 160);

    std::promise<void> stalled;
    std::promise<void> release;
    const std::shared_future<void> released =
        release.get_future().share();
    std::once_flag stallOnce;
    api::StreamOptions stalling;
    stalling.onPartial = [&](const std::vector<wfst::WordId> &) {
        std::call_once(stallOnce, [&] { stalled.set_value(); });
        released.wait();
    };
    const StreamHandle a = engine.open(stalling);
    ASSERT_NE(a.value, 0u);
    // One push of the whole utterance: a single tick decodes it and
    // publishes its first (non-empty) partial into the callback.
    ASSERT_TRUE(engine.push(a, audio.samples));
    ASSERT_EQ(stalled.get_future().wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "stream A never published a partial";

    const StreamHandle b = engine.open();
    ASSERT_NE(b.value, 0u);

    using api::PushResult;
    for (unsigned i = 0; i < 4; ++i)
        ASSERT_EQ(engine.pushFor(b, chunk,
                                 std::chrono::milliseconds(0)),
                  PushResult::Ok)
            << "chunk " << i;
    // Queue full: a zero-wait push and a bounded-wait push both
    // report WouldBlock -- promptly, without queueing the chunk.
    EXPECT_EQ(engine.pushFor(b, chunk, std::chrono::nanoseconds(0)),
              PushResult::WouldBlock);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(engine.pushFor(b, chunk,
                             std::chrono::milliseconds(10)),
              PushResult::WouldBlock);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(5));
    EXPECT_EQ(engine.state(b), StreamState::Open);

    // Releasing the stall lets the coordinator admit B; its queue
    // drains and the same push succeeds -- WouldBlock marked a
    // moment, not the stream.
    release.set_value();
    EXPECT_EQ(engine.pushFor(b, chunk, std::chrono::seconds(30)),
              PushResult::Ok);
    EXPECT_TRUE(engine.cancel(a));
    const auto result = engine.finish(b).get();
    EXPECT_GT(result.audioSeconds, 0.0);

    // Terminal and never-issued handles are Rejected, not
    // WouldBlock: retrying would never help.
    EXPECT_EQ(engine.pushFor(b, chunk, std::chrono::nanoseconds(0)),
              PushResult::Rejected);
    StreamHandle garbage;
    garbage.value = 0xDEADBEEFull;
    EXPECT_EQ(engine.pushFor(garbage, chunk,
                             std::chrono::nanoseconds(0)),
              PushResult::Rejected);
}

TEST_F(ApiEngineTest, EvictedHandleNeverAliasesALaterStream)
{
    // Eviction audit: retired handles leave the state() map (bounded
    // by EngineOptions::retiredHandleCap), so a stale handle held
    // past the window must degrade cleanly -- and must never alias a
    // younger stream.  Handle values are a monotonic counter, never
    // recycled, which this test pins down.
    const frontend::AudioSignal audio = testAudio(97, 3);
    EngineOptions opts;
    opts.numThreads = 2;
    opts.retiredHandleCap = 4;
    Engine engine(*model, opts);

    std::vector<StreamHandle> handles;
    for (unsigned u = 0; u < 12; ++u) {
        const StreamHandle h = engine.open();
        ASSERT_NE(h.value, 0u);
        if (!handles.empty()) {
            EXPECT_GT(h.value, handles.back().value)
                << "handle values must be strictly increasing";
        }
        handles.push_back(h);
        EXPECT_TRUE(engine.push(h, audio.samples));
        ASSERT_TRUE(engine.finish(h).valid());
        engine.drain();
    }

    // The oldest handles are far outside the 4-entry retention
    // window; every accessor degrades exactly like a never-issued
    // handle, with no crosstalk into live streams.
    const StreamHandle live = engine.open();
    ASSERT_NE(live.value, 0u);
    for (unsigned u = 0; u < 4; ++u) {
        const StreamHandle stale = handles[u];
        EXPECT_NE(stale.value, live.value);
        EXPECT_FALSE(engine.push(stale, audio.samples));
        EXPECT_TRUE(engine.partial(stale).empty());
        EXPECT_FALSE(engine.finish(stale).valid());
        EXPECT_FALSE(engine.cancel(stale));
        EXPECT_EQ(engine.state(stale), StreamState::Done);
    }
    // The live stream is untouched by the stale traffic.
    EXPECT_EQ(engine.state(live), StreamState::Open);
    EXPECT_TRUE(engine.push(live, audio.samples));
    const auto result = engine.finish(live).get();
    EXPECT_GT(result.audioSeconds, 0.0);
}

TEST_F(ApiEngineTest, CancelWhileQueuedInBatchMode)
{
    // Streams cancelled right after open() race the coordinator's
    // admission: whichever side wins, the coordinator must retire
    // them without building (or with discarding) a session and stay
    // healthy for real work.
    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);
    for (int i = 0; i < 32; ++i) {
        const StreamHandle h = engine.open();
        EXPECT_TRUE(engine.cancel(h));
        EXPECT_EQ(engine.state(h), StreamState::Cancelled);
    }
    const frontend::AudioSignal audio = testAudio(47);
    const auto r = engine.recognize(audio);
    EXPECT_GT(r.audioSeconds, 0.0);
    EXPECT_EQ(engine.stats().utterances, 1u);
}

// ---------------------------------------------------------------------------
// Live streams x batch scoring x concurrency.
// ---------------------------------------------------------------------------

TEST_F(ApiEngineTest, LiveStreamsReachTheBatchScorer)
{
    // The acceptance gate of the unified API: two concurrent live
    // clients must coalesce into cross-session GEMM batches (mean
    // batch rows > 1), while reproducing the inline reference bits.
    const frontend::AudioSignal a = testAudio(29);
    const frontend::AudioSignal b = testAudio(31);
    const auto want_a = referenceDecode(a, 0);
    const auto want_b = referenceDecode(b, 1);

    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);
    const StreamHandle ha = engine.open();
    const StreamHandle hb = engine.open();
    const std::size_t steps =
        std::max(a.samples.size(), b.samples.size());
    for (std::size_t base = 0; base < steps; base += 160) {
        if (base < a.samples.size())
            engine.push(ha, std::span<const float>(
                                a.samples.data() + base,
                                std::min<std::size_t>(
                                    160, a.samples.size() - base)));
        if (base < b.samples.size())
            engine.push(hb, std::span<const float>(
                                b.samples.data() + base,
                                std::min<std::size_t>(
                                    160, b.samples.size() - base)));
    }
    auto fa = engine.finish(ha);
    auto fb = engine.finish(hb);
    const auto got_a = fa.get();
    const auto got_b = fb.get();

    EXPECT_EQ(got_a.words, want_a.words);
    EXPECT_EQ(got_a.score, want_a.score);
    EXPECT_EQ(got_b.words, want_b.words);
    EXPECT_EQ(got_b.score, want_b.score);

    const auto snap = engine.stats();
    EXPECT_GT(snap.dnnBatches, 0u);
    EXPECT_GT(snap.dnnMeanBatchRows(), 1.0)
        << "live streams did not coalesce into the batch scorer";
}

TEST_F(ApiEngineTest, EightInterleavedLiveStreams)
{
    // >= 8 concurrent live clients over a 3-thread engine:
    // interleaved pushes from client threads, partial polling from
    // the test thread, per-stream results bit-identical to solo inline
    // decodes.
    constexpr unsigned kStreams = 8;
    std::vector<frontend::AudioSignal> corpus;
    std::vector<pipeline::RecognitionResult> want;
    for (unsigned u = 0; u < kStreams; ++u) {
        corpus.push_back(testAudio(200 + u, 4 + u % 3));
        want.push_back(referenceDecode(corpus[u], u));
    }

    EngineOptions opts;
    opts.numThreads = 3;
    Engine engine(*model, opts);

    std::vector<StreamHandle> handles(kStreams);
    for (unsigned u = 0; u < kStreams; ++u)
        handles[u] = engine.open();

    // One pusher thread per stream, all racing.
    std::vector<std::thread> pushers;
    for (unsigned u = 0; u < kStreams; ++u) {
        pushers.emplace_back([&, u] {
            const std::vector<float> &s = corpus[u].samples;
            const std::size_t chunk = 160 + 16 * u;  // vary shapes
            for (std::size_t base = 0; base < s.size();
                 base += chunk) {
                const std::size_t len =
                    std::min(chunk, s.size() - base);
                EXPECT_TRUE(engine.push(
                    handles[u],
                    std::span<const float>(s.data() + base, len)));
            }
        });
    }
    // Poll interleaved partials while the pushers run.
    for (int poll = 0; poll < 50; ++poll)
        for (unsigned u = 0; u < kStreams; ++u)
            (void)engine.partial(handles[u]);
    for (std::thread &t : pushers)
        t.join();

    std::vector<std::future<pipeline::RecognitionResult>> futures;
    for (unsigned u = 0; u < kStreams; ++u)
        futures.push_back(engine.finish(handles[u]));
    for (unsigned u = 0; u < kStreams; ++u) {
        const auto got = futures[u].get();
        EXPECT_EQ(got.words, want[u].words) << "stream " << u;
        EXPECT_EQ(got.score, want[u].score) << "stream " << u;
        EXPECT_EQ(got.sessionId, handles[u].value - 1);
    }

    const auto snap = engine.stats();
    EXPECT_EQ(snap.utterances, kStreams);
    EXPECT_GT(snap.dnnMeanBatchRows(), 1.0);
    // Every stream that produced words showed a first partial.
    EXPECT_GT(snap.firstPartials, 0u);
}

TEST_F(ApiEngineTest, PartialCallbacksFireOnChange)
{
    const frontend::AudioSignal audio = testAudio(37, 8);
    EngineOptions opts;
    Engine engine(*model, opts);

    std::atomic<unsigned> calls{0};
    std::vector<wfst::WordId> last;
    std::mutex lastMu;
    api::StreamOptions sopts;
    sopts.onPartial = [&](const std::vector<wfst::WordId> &words) {
        ++calls;
        std::lock_guard<std::mutex> lock(lastMu);
        last = words;
    };
    const StreamHandle h = engine.open(sopts);
    const std::vector<float> &s = audio.samples;
    for (std::size_t base = 0; base < s.size(); base += 160) {
        const std::size_t len =
            std::min<std::size_t>(160, s.size() - base);
        engine.push(h,
                    std::span<const float>(s.data() + base, len));
    }
    const auto r = engine.finish(h).get();
    if (!r.words.empty()) {
        EXPECT_GT(calls.load(), 0u);
        // The last published partial is a plausible prefix-ish of
        // the final hypothesis: at minimum, non-empty.
        std::lock_guard<std::mutex> lock(lastMu);
        EXPECT_FALSE(last.empty());
    }

    const auto snap = engine.stats();
    EXPECT_EQ(snap.firstPartials, r.words.empty() ? 0u : 1u);
    if (snap.firstPartials > 0) {
        EXPECT_GE(snap.firstPartialP99Ms, snap.firstPartialP50Ms);
        EXPECT_NE(snap.render().find("first partial"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// Options validation.
// ---------------------------------------------------------------------------

TEST_F(ApiEngineTest, ValidateRejectsUnknownBackendsListingKnown)
{
    EngineOptions opts;
    EXPECT_TRUE(opts.validate().empty());

    opts.searchBackend = "warp-speed";
    const std::string searchErr = opts.validate();
    ASSERT_FALSE(searchErr.empty());
    EXPECT_NE(searchErr.find("warp-speed"), std::string::npos);
    for (const char *name : {"viterbi", "baseline", "accel"})
        EXPECT_NE(searchErr.find(name), std::string::npos) << name;

    opts.searchBackend = "viterbi";
    opts.acousticBackend = "float128";
    const std::string acousticErr = opts.validate();
    ASSERT_FALSE(acousticErr.empty());
    EXPECT_NE(acousticErr.find("float128"), std::string::npos);
    for (const char *name : {"reference", "blocked", "int8"})
        EXPECT_NE(acousticErr.find(name), std::string::npos) << name;

    opts.acousticBackend = "blocked";
    EXPECT_TRUE(opts.validate().empty());

    // An empty name resolves to the default software decoder.
    EngineOptions defaulted;
    EXPECT_EQ(defaulted.effectiveSearchBackend(), "viterbi");
    EXPECT_TRUE(defaulted.validate().empty());
}

TEST_F(ApiEngineTest, StatsAndDrainCoverAllEntryStyles)
{
    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);

    const frontend::AudioSignal audio = testAudio(41);
    auto f1 = engine.submit(audio);
    const StreamHandle h = engine.open();
    engine.push(h, audio.samples);
    auto f2 = engine.finish(h);
    f1.get();
    f2.get();
    engine.drain();

    const auto snap = engine.stats();
    EXPECT_EQ(snap.utterances, 2u);
    EXPECT_EQ(engine.submittedCount(), 2u);
    EXPECT_GT(snap.audioSeconds, 0.0);
}

// ---------------------------------------------------------------------------
// Deadline watchdog.
// ---------------------------------------------------------------------------

TEST_F(ApiEngineTest, DeadlineForeclosesAnAbandonedOpenStream)
{
    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);

    api::StreamOptions sopts;
    sopts.deadlineMs = 40;
    const StreamHandle h = engine.open(sopts);
    const frontend::AudioSignal audio = testAudio(103, 3);
    engine.push(h, std::span<const float>(audio.samples.data(), 1600));

    // Abandoned: no finish() ever comes.  The watchdog must foreclose
    // it like a cancel, marked as a deadline.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (engine.state(h) == StreamState::Open &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(engine.state(h), StreamState::Cancelled);
    EXPECT_TRUE(engine.deadlineExpired(h));
    EXPECT_FALSE(engine.push(h, audio.samples));
    EXPECT_GE(engine.stats().deadlinesExpired, 1u);
    engine.drain();
}

TEST_F(ApiEngineTest, PromptFinishBeatsItsDeadline)
{
    const frontend::AudioSignal audio = testAudio(107);
    const pipeline::RecognitionResult want = referenceDecode(audio);

    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);
    api::StreamOptions sopts;
    sopts.deadlineMs = 60'000;  // cannot plausibly expire
    const StreamHandle h = engine.open(sopts);
    engine.push(h, audio.samples);
    const pipeline::RecognitionResult got = engine.finish(h).get();
    EXPECT_EQ(got.words, want.words);
    EXPECT_EQ(got.score, want.score);
    EXPECT_FALSE(engine.deadlineExpired(h));
    EXPECT_EQ(engine.stats().deadlinesExpired, 0u);
}

TEST_F(ApiEngineTest, DeadlineBoundsTheFinishWait)
{
    // A finish() racing its own deadline resolves either way: the
    // decode wins (real result) or the watchdog wins (empty result,
    // stream marked expired).  Either is legal; an unresolved future
    // or a wedge is not.
    const frontend::AudioSignal audio = testAudio(109, 8);
    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);

    api::StreamOptions sopts;
    sopts.deadlineMs = 2;  // tighter than a full decode
    // On a slow host the watchdog can foreclose the stream while it
    // is still Open, before finish() lands; that finish() then
    // returns an invalid future, per the contract.  Retry until a
    // finish() is accepted, so the race under test -- decode vs
    // deadline while Finishing -- actually runs.
    StreamHandle h;
    std::future<pipeline::RecognitionResult> future;
    for (int attempt = 0; attempt < 100 && !future.valid(); ++attempt) {
        h = engine.open(sopts);
        engine.push(h,
                    std::span<const float>(audio.samples.data(), 1600));
        future = engine.finish(h);
        if (!future.valid()) {
            EXPECT_EQ(engine.state(h), StreamState::Cancelled);
            EXPECT_TRUE(engine.deadlineExpired(h));
        }
    }
    ASSERT_TRUE(future.valid());
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    const pipeline::RecognitionResult result = future.get();
    if (engine.deadlineExpired(h)) {
        EXPECT_TRUE(result.words.empty());
    }
    engine.drain();
}

TEST_F(ApiEngineTest, CancelDeadlineFinishRaceNeverWedges)
{
    // Three-way race on every stream: a pusher/finisher thread, a
    // cancelling thread, and the deadline watchdog, with budgets of
    // 1..20 ms straddling the decode time.  Any interleaving of the
    // three terminations is legal; the assertions are that every
    // valid finish future resolves, terminal states are consistent,
    // and drain() completes (no slot leaks, no wedge).  The
    // concurrency label runs this under TSan in CI.
    constexpr unsigned kStreams = 24;
    const frontend::AudioSignal audio = testAudio(113, 4);
    EngineOptions opts;
    opts.numThreads = 3;
    Engine engine(*model, opts);

    std::vector<StreamHandle> handles(kStreams);
    for (unsigned i = 0; i < kStreams; ++i) {
        api::StreamOptions sopts;
        sopts.deadlineMs = 1 + i % 20;
        handles[i] = engine.open(sopts);
        ASSERT_NE(handles[i].value, 0u);
    }

    std::vector<std::future<pipeline::RecognitionResult>> futures(
        kStreams);
    std::thread finisher([&] {
        for (unsigned i = 0; i < kStreams; ++i) {
            engine.push(handles[i],
                        std::span<const float>(audio.samples.data(),
                                               1600));
            if (i % 3 != 2)
                futures[i] = engine.finish(handles[i]);
        }
    });
    std::thread canceller([&] {
        for (unsigned i = 0; i < kStreams; ++i) {
            if (i % 2 == 0)
                engine.cancel(handles[i]);
            if (i % 5 == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        }
    });
    finisher.join();
    canceller.join();

    for (unsigned i = 0; i < kStreams; ++i) {
        if (!futures[i].valid())
            continue;
        ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(10)),
                  std::future_status::ready)
            << "stream " << i;
        futures[i].get();
    }
    // Every stream must leave Open -- by cancel, finish, or its
    // deadline (at most 20 ms out).
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (unsigned i = 0; i < kStreams; ++i) {
        while (engine.state(handles[i]) == StreamState::Open &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_NE(engine.state(handles[i]), StreamState::Open) << i;
    }
    engine.drain();
}
