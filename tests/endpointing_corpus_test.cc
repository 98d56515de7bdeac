/**
 * @file
 * The corpus-driven endpointing suite: the acceptance harness the
 * always-on pipeline was tuned against, plus the engine-level
 * integration it certifies.
 *
 *  - Corpus sweep: >= 20 seeds x 3 SNR levels of synthetic
 *    always-on recordings (frontend::generateEndpointCorpus -- no
 *    binary assets, everything derives from the seed) with 0 missed
 *    segments and <= 1 false trigger in total, at known boundaries.
 *  - Chunk invariance: detected boundaries are bit-identical under
 *    pathological push sizes (the determinism contract).
 *  - Engine integration: a live stream opened with
 *    StreamOptions::autoEndpoint emits, per detected segment, a
 *    result *bit-identical* to a manual inline-scoring
 *    StreamingSession decode of exactly that sample range, at
 *    several thread counts and coordinator slot counts.  ("Both
 *    modes" in the test names: the engine's deferred scoring against
 *    the inline reference.)
 *  - Wake-word gating: nothing is decoded before the wake phrase.
 *  - Hostile audio: chunks holding NaN or +-Inf are rejected before
 *    they reach the endpointer, and the stream segments and decodes
 *    as if they had never been pushed.
 *  - Races (concurrency label, TSan in CI): a client finish()
 *    landing while trailing silence is auto-finishing a segment
 *    resolves to exactly one final result.
 */

#include <atomic>
#include <future>
#include <limits>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.hh"
#include "common/logging.hh"
#include "frontend/endpointer.hh"
#include "server/session.hh"
#include "wfst/generate.hh"

using namespace asr;
using api::Engine;
using api::EngineOptions;
using api::StreamHandle;
using api::StreamOptions;
using frontend::EndpointCorpusConfig;
using frontend::EndpointCorpusUtterance;
using frontend::Endpointer;
using frontend::EndpointerConfig;
using frontend::LabeledSegment;
using frontend::SegmentationScore;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

[[maybe_unused]] const auto *env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

constexpr unsigned kPhonemes = 8;

/** Shared net + trained model for the engine-integration tests. */
class EndpointingTest : public ::testing::Test
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

        pipeline::AsrSystemConfig mcfg;
        mcfg.numPhonemes = kPhonemes;
        mcfg.hiddenLayers = {32};
        mcfg.trainUtterPerPhoneme = 8;
        mcfg.trainEpochs = 8;
        mcfg.beam = 14.0f;
        mcfg.seed = 53;
        model = new pipeline::AsrModel(*net, mcfg);
    }

    static void
    TearDownTestSuite()
    {
        delete model;
        delete net;
        model = nullptr;
        net = nullptr;
    }

    /** A short always-on recording decodable at test speed. */
    static EndpointCorpusUtterance
    recording(std::uint64_t seed, unsigned segments = 2)
    {
        EndpointCorpusConfig cc;
        cc.seed = seed;
        cc.numPhonemes = kPhonemes;
        cc.numSegments = segments;
        cc.minSpeechFrames = 25;
        cc.maxSpeechFrames = 45;
        cc.snrDb = 30.0;
        return frontend::generateEndpointCorpus(cc);
    }

    /** The boundaries the engine must reproduce: a standalone
     *  Endpointer with the same (default) config over the same
     *  audio. */
    static std::vector<LabeledSegment>
    expectedSegments(const EndpointCorpusUtterance &u)
    {
        Endpointer ep{EndpointerConfig()};
        return frontend::detectSegments(ep, u.audio);
    }

    struct SegmentRecord
    {
        pipeline::RecognitionResult result;
        server::SegmentBoundary boundary;
    };

    /**
     * Stream @p u through an auto-endpointed live stream in @p chunk
     * sized pushes and return the emitted segments plus the final
     * result.
     */
    static std::pair<std::vector<SegmentRecord>,
                     pipeline::RecognitionResult>
    streamAuto(Engine &engine, const EndpointCorpusUtterance &u,
               std::size_t chunk)
    {
        std::vector<SegmentRecord> segs;
        std::mutex mu;
        StreamOptions sopts;
        sopts.autoEndpoint = true;
        sopts.onSegment =
            [&](const pipeline::RecognitionResult &result,
                const server::SegmentBoundary &boundary) {
                std::lock_guard<std::mutex> lock(mu);
                segs.push_back(SegmentRecord{result, boundary});
            };
        const StreamHandle h = engine.open(sopts);
        EXPECT_NE(h.value, 0u);
        const std::vector<float> &s = u.audio.samples;
        for (std::size_t base = 0; base < s.size(); base += chunk) {
            const std::size_t len = std::min(chunk, s.size() - base);
            EXPECT_TRUE(engine.push(
                h, std::span<const float>(s.data() + base, len)));
        }
        pipeline::RecognitionResult final_result =
            engine.finish(h).get();
        std::lock_guard<std::mutex> lock(mu);
        return {segs, std::move(final_result)};
    }

    /** Manual reference: an inline-scoring StreamingSession decode
     *  of exactly @p samples as session @p id. */
    static pipeline::RecognitionResult
    manualDecode(std::span<const float> samples, std::uint64_t id)
    {
        server::SessionConfig cfg;
        cfg.id = id;
        server::StreamingSession session(*model, cfg);
        session.pushAudio(samples);
        return session.finish();
    }

    static EngineOptions
    engineOptions(unsigned threads = 3, std::size_t slots = 32)
    {
        EngineOptions opts;
        opts.numThreads = threads;
        opts.maxBatchSessions = slots;
        return opts;
    }

    static wfst::Wfst *net;
    static pipeline::AsrModel *model;
};

wfst::Wfst *EndpointingTest::net = nullptr;
pipeline::AsrModel *EndpointingTest::model = nullptr;

} // namespace

// ---------------------------------------------------------------------------
// Corpus acceptance sweep (no model needed; pure front-end).
// ---------------------------------------------------------------------------

TEST(EndpointingCorpus, SweepHasNoMissesAndAtMostOneFalseTrigger)
{
    const double snrs[] = {30.0, 20.0, 10.0};
    std::size_t truth_total = 0, missed = 0, false_triggers = 0;
    for (const double snr : snrs) {
        for (std::uint64_t seed = 1; seed <= 24; ++seed) {
            EndpointCorpusConfig cc;
            cc.seed = seed;
            cc.snrDb = snr;
            const EndpointCorpusUtterance u =
                frontend::generateEndpointCorpus(cc);
            ASSERT_EQ(u.segments.size(), cc.numSegments);
            Endpointer ep{EndpointerConfig()};
            const std::vector<LabeledSegment> detected =
                frontend::detectSegments(ep, u.audio);
            const SegmentationScore score = frontend::scoreSegmentation(
                u.segments, detected, cc.sampleRate);
            truth_total += score.truthSegments;
            missed += score.missed;
            false_triggers += score.falseTriggers;
            // Matched boundaries stay within preroll of the true
            // onset and within the closing delay of the true end.
            if (score.missed == 0 &&
                score.detectedSegments == score.truthSegments) {
                EXPECT_LT(score.meanStartErrMs, 100.0)
                    << "snr " << snr << " seed " << seed;
                EXPECT_LT(score.meanEndErrMs, 450.0)
                    << "snr " << snr << " seed " << seed;
            }
        }
    }
    EXPECT_EQ(truth_total, 3u * 24u * 3u);
    EXPECT_EQ(missed, 0u) << "missed segments across the sweep";
    EXPECT_LE(false_triggers, 1u) << "false triggers across the sweep";
}

TEST(EndpointingCorpus, BoundariesAreChunkSizeInvariant)
{
    EndpointCorpusConfig cc;
    cc.seed = 5;
    cc.numSegments = 2;
    const EndpointCorpusUtterance u =
        frontend::generateEndpointCorpus(cc);

    Endpointer ref{EndpointerConfig()};
    const std::vector<LabeledSegment> expect =
        frontend::detectSegments(ref, u.audio, u.audio.samples.size());
    ASSERT_FALSE(expect.empty());

    for (const std::size_t chunk :
         {std::size_t(1), std::size_t(13), std::size_t(160),
          std::size_t(7001)}) {
        Endpointer ep{EndpointerConfig()};
        const std::vector<LabeledSegment> got =
            frontend::detectSegments(ep, u.audio, chunk);
        ASSERT_EQ(got.size(), expect.size()) << "chunk " << chunk;
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(got[i].startSample, expect[i].startSample)
                << "chunk " << chunk << " segment " << i;
            EXPECT_EQ(got[i].endSample, expect[i].endSample)
                << "chunk " << chunk << " segment " << i;
        }
    }
}

// ---------------------------------------------------------------------------
// Engine integration: auto-endpointed streams decode each segment
// bit-identically to a manual decode of the same samples.
// ---------------------------------------------------------------------------

TEST_F(EndpointingTest, AutoSegmentsMatchManualDecodesBothModes)
{
    const EndpointCorpusUtterance u = recording(3);
    const std::vector<LabeledSegment> expect = expectedSegments(u);
    ASSERT_EQ(expect.size(), 2u)
        << "recording seed must segment cleanly";

    for (const unsigned threads : {1u, 3u}) {
        for (const std::size_t slots : {std::size_t(1),
                                        std::size_t(32)}) {
            SCOPED_TRACE(testing::Message() << threads << " threads, "
                                            << slots << " slots");
            Engine engine(*model, engineOptions(threads, slots));
            const auto [segs, final_result] =
                streamAuto(engine, u, 160);

            ASSERT_EQ(segs.size(), expect.size());
            for (std::size_t i = 0; i < expect.size(); ++i) {
                // Sample-exact boundaries, in order.
                EXPECT_EQ(segs[i].boundary.index, i);
                EXPECT_EQ(segs[i].boundary.startSample,
                          expect[i].startSample);
                EXPECT_EQ(segs[i].boundary.endSample,
                          expect[i].endSample);
                // Bit-identical decode of that range.
                const pipeline::RecognitionResult manual = manualDecode(
                    std::span<const float>(u.audio.samples)
                        .subspan(expect[i].startSample,
                                 expect[i].endSample -
                                     expect[i].startSample),
                    segs[i].result.sessionId);
                EXPECT_EQ(segs[i].result.words, manual.words)
                    << "segment " << i;
                EXPECT_EQ(segs[i].result.score, manual.score)
                    << "segment " << i;
            }
            // The stream's final result re-delivers the last segment.
            EXPECT_EQ(final_result.words, segs.back().result.words);
            EXPECT_EQ(final_result.score, segs.back().result.score);

            const server::EngineSnapshot snap = engine.stats();
            EXPECT_EQ(snap.segments, expect.size());
            EXPECT_EQ(snap.gateOpens, 0u);
            EXPECT_NE(snap.render().find("always-on"),
                      std::string::npos);
        }
    }
}

TEST_F(EndpointingTest, AutoSegmentsAreChunkInvariantThroughEngine)
{
    const EndpointCorpusUtterance u = recording(8, 1);
    Engine engine(*model, engineOptions());

    const auto [ref, ref_final] = streamAuto(engine, u, 160);
    ASSERT_EQ(ref.size(), 1u);
    for (const std::size_t chunk : {std::size_t(73),
                                    std::size_t(1536)}) {
        const auto [got, got_final] = streamAuto(engine, u, chunk);
        ASSERT_EQ(got.size(), ref.size()) << "chunk " << chunk;
        EXPECT_EQ(got[0].boundary.startSample,
                  ref[0].boundary.startSample);
        EXPECT_EQ(got[0].boundary.endSample,
                  ref[0].boundary.endSample);
        EXPECT_EQ(got[0].result.words, ref[0].result.words);
        EXPECT_EQ(got[0].result.score, ref[0].result.score);
    }
}

TEST_F(EndpointingTest, SilentStreamYieldsEmptyFinalBothModes)
{
    Engine engine(*model, engineOptions());
    std::atomic<int> segments{0};
    StreamOptions sopts;
    sopts.autoEndpoint = true;
    sopts.onSegment = [&](const pipeline::RecognitionResult &,
                          const server::SegmentBoundary &) {
        ++segments;
    };
    const StreamHandle h = engine.open(sopts);
    ASSERT_NE(h.value, 0u);
    const std::vector<float> silence(1600, 0.0f);
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(engine.push(h, silence));
    const pipeline::RecognitionResult final_result =
        engine.finish(h).get();
    // No segment: the final result is the empty decode an inline
    // zero-sample session produces.
    const pipeline::RecognitionResult empty = manualDecode({}, 0);
    EXPECT_TRUE(final_result.words.empty());
    EXPECT_EQ(final_result.score, empty.score);
    EXPECT_EQ(segments.load(), 0);
    EXPECT_EQ(engine.stats().segments, 0u);
}

TEST_F(EndpointingTest, NonFinitePushesNeverReachTheEndpointer)
{
    // Every finite chunk follows a copy of itself holding one NaN or
    // +-Inf sample.  The engine rejects each copy before it is
    // queued, so the endpointer sees only the recording: the same
    // segments, each decoded to the manual reference.
    const EndpointCorpusUtterance u = recording(3);
    const std::vector<LabeledSegment> expect = expectedSegments(u);
    ASSERT_EQ(expect.size(), 2u);
    Engine engine(*model, engineOptions());

    std::vector<SegmentRecord> segs;
    std::mutex mu;
    StreamOptions sopts;
    sopts.autoEndpoint = true;
    sopts.onSegment = [&](const pipeline::RecognitionResult &result,
                          const server::SegmentBoundary &boundary) {
        std::lock_guard<std::mutex> lock(mu);
        segs.push_back(SegmentRecord{result, boundary});
    };
    const StreamHandle h = engine.open(sopts);
    ASSERT_NE(h.value, 0u);
    const float hostile[] = {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
    const std::vector<float> &s = u.audio.samples;
    std::size_t k = 0;
    for (std::size_t base = 0; base < s.size(); base += 160, ++k) {
        const std::size_t len = std::min<std::size_t>(160, s.size() - base);
        std::vector<float> bad(s.begin() + base, s.begin() + base + len);
        bad[k % len] = hostile[k % 3];
        EXPECT_EQ(engine.pushFor(h, bad, std::chrono::nanoseconds(0)),
                  api::PushResult::Rejected)
            << "chunk " << k;
        EXPECT_TRUE(engine.push(
            h, std::span<const float>(s.data() + base, len)));
    }
    const pipeline::RecognitionResult final_result =
        engine.finish(h).get();

    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(segs.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(segs[i].boundary.startSample, expect[i].startSample);
        EXPECT_EQ(segs[i].boundary.endSample, expect[i].endSample);
        const pipeline::RecognitionResult manual = manualDecode(
            std::span<const float>(s).subspan(
                expect[i].startSample,
                expect[i].endSample - expect[i].startSample),
            segs[i].result.sessionId);
        EXPECT_EQ(segs[i].result.words, manual.words) << "segment " << i;
        EXPECT_EQ(segs[i].result.score, manual.score) << "segment " << i;
    }
    EXPECT_EQ(final_result.words, segs.back().result.words);
    EXPECT_EQ(final_result.score, segs.back().result.score);
}

TEST_F(EndpointingTest, UnknownDetectorAndBareWakeWordAreRejected)
{
    Engine engine(*model, engineOptions());
    {
        StreamOptions sopts;  // wakeWord without autoEndpoint
        sopts.wakeWord.assign(16000, 0.0f);
        const StreamHandle h = engine.open(sopts);
        EXPECT_EQ(h.value, 0u);
    }
    // The engine still serves ordinary work afterwards.
    const pipeline::RecognitionResult r =
        engine.recognize(recording(4, 1).audio);
    EXPECT_GE(r.audioSeconds, 0.0);
}

// ---------------------------------------------------------------------------
// Wake-word gating.
// ---------------------------------------------------------------------------

TEST_F(EndpointingTest, WakeWordGatesDecodingUntilPhrase)
{
    // Stream: [decoy speech] [silence] [wake phrase] [silence]
    // [command speech] [silence].  Gated: only the command (and
    // possibly the tail of the wake audio) may produce segments; the
    // decoy must never be decoded.
    const frontend::Synthesizer &synth = model->synthesizer();
    const frontend::AudioSignal wake =
        synth.synthesize({1, 4, 2, 6}, 8);
    const frontend::AudioSignal decoy =
        synth.synthesize({3, 5, 7}, 8);
    const frontend::AudioSignal command =
        synth.synthesize({2, 8, 5, 1}, 8);
    const std::vector<float> gap(16000, 0.0f);  // 1 s silence

    std::vector<float> stream;
    const auto append = [&stream](const std::vector<float> &s) {
        stream.insert(stream.end(), s.begin(), s.end());
    };
    append(gap);
    append(decoy.samples);
    append(gap);
    append(wake.samples);
    append(gap);
    append(command.samples);
    append(gap);

    Engine engine(*model, engineOptions());
    std::vector<server::SegmentBoundary> boundaries;
    std::mutex mu;
    StreamOptions sopts;
    sopts.autoEndpoint = true;
    sopts.wakeWord = wake.samples;
    sopts.wakeThreshold = 0.8f;
    sopts.onSegment = [&](const pipeline::RecognitionResult &,
                          const server::SegmentBoundary &b) {
        std::lock_guard<std::mutex> lock(mu);
        boundaries.push_back(b);
    };
    const StreamHandle h = engine.open(sopts);
    ASSERT_NE(h.value, 0u);
    for (std::size_t base = 0; base < stream.size(); base += 160) {
        const std::size_t len = std::min<std::size_t>(
            160, stream.size() - base);
        ASSERT_TRUE(engine.push(
            h, std::span<const float>(stream.data() + base, len)));
    }
    (void)engine.finish(h).get();

    const server::EngineSnapshot snap = engine.stats();
    EXPECT_EQ(snap.gateOpens, 1u);

    // The decoy ends well before the wake phrase begins; no emitted
    // segment may start before the wake phrase.
    const std::uint64_t wake_start = 2 * gap.size() +
                                     decoy.samples.size();
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_FALSE(boundaries.empty())
        << "command after the wake phrase was never decoded";
    for (const server::SegmentBoundary &b : boundaries)
        EXPECT_GE(b.startSample, wake_start)
            << "segment " << b.index << " decoded gated audio";
}

// ---------------------------------------------------------------------------
// Races: client finish() vs segment auto-finish (concurrency label;
// CI runs this under TSan).
// ---------------------------------------------------------------------------

TEST_F(EndpointingTest, FinishRacingAutoEndpointResolvesOnceBothModes)
{
    const EndpointCorpusUtterance u = recording(11, 1);
    // Two thread counts vary the interleavings the race can take.
    for (const unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(testing::Message() << threads << " threads");
        Engine engine(*model, engineOptions(threads));
        // Several rounds to vary the interleaving: the pusher stops
        // right after the burst's trailing silence entered the
        // queue, so the engine-side auto-finish of the segment races
        // the client's stream finish().
        for (int round = 0; round < 4; ++round) {
            std::atomic<int> segments{0};
            StreamOptions sopts;
            sopts.autoEndpoint = true;
            sopts.onSegment = [&](const pipeline::RecognitionResult &,
                                  const server::SegmentBoundary &) {
                ++segments;
            };
            const StreamHandle h = engine.open(sopts);
            ASSERT_NE(h.value, 0u);

            std::thread pusher([&] {
                const std::vector<float> &s = u.audio.samples;
                for (std::size_t base = 0; base < s.size();
                     base += 160) {
                    const std::size_t len =
                        std::min<std::size_t>(160, s.size() - base);
                    if (!engine.push(h, std::span<const float>(
                                            s.data() + base, len)))
                        break;
                }
            });
            // Finish from the client thread while the pusher (and
            // the auto-endpointer behind it) is mid-flight.
            std::future<pipeline::RecognitionResult> fut =
                engine.finish(h);
            pusher.join();
            if (fut.valid()) {
                const pipeline::RecognitionResult final_result =
                    fut.get();
                // Exactly one final result; if the burst's trailing
                // silence was consumed before the close, the segment
                // also fired -- never more than once.
                EXPECT_LE(segments.load(), 1);
            }
            EXPECT_EQ(engine.state(h), api::StreamState::Done);
        }
        engine.drain();
    }
}
