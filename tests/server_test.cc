/**
 * @file
 * Tests for the concurrent streaming decode engine (src/server):
 * streaming sessions must reproduce the batch pipeline bit-exactly,
 * handle degenerate inputs (zero-length audio, single frames, beams
 * so tight everything but the best chain is cut), agree across the
 * software and accelerator backends, and produce scheduling-
 * independent results under any worker-thread count.
 *
 * The shared AsrModel is trained once per process (SetUpTestSuite):
 * DNN training is the expensive part and the model is immutable, so
 * every test decodes against the same instance -- exactly the usage
 * pattern the server layer is designed for.
 */

#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "decoder/viterbi.hh"
#include "pipeline/corpus.hh"
#include "server/session.hh"
#include "wfst/generate.hh"

using namespace asr;
using namespace asr::server;
using api::Engine;
using api::EngineOptions;

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
class ServerTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        wfst::GeneratorConfig gcfg;
        gcfg.numStates = 200;
        gcfg.numPhonemes = kPhonemes;
        gcfg.numWords = 40;
        gcfg.seed = 2025;
        net = new wfst::Wfst(wfst::generateWfst(gcfg));

        pipeline::AsrSystemConfig mcfg;
        mcfg.numPhonemes = kPhonemes;
        mcfg.hiddenLayers = {32};
        mcfg.trainUtterPerPhoneme = 8;
        mcfg.trainEpochs = 8;
        mcfg.beam = 14.0f;
        mcfg.seed = 31;
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

    /** Synthesize a deterministic test utterance. */
    static frontend::AudioSignal
    testAudio(std::uint64_t seed, unsigned phones = 6)
    {
        Rng rng(seed);
        std::vector<std::uint32_t> seq;
        for (unsigned i = 0; i < phones; ++i)
            seq.push_back(1 + std::uint32_t(rng.below(kPhonemes)));
        return model->synthesizer().synthesize(seq, 3);
    }

    static wfst::Wfst *net;
    static pipeline::AsrModel *model;
};

wfst::Wfst *ServerTest::net = nullptr;
pipeline::AsrModel *ServerTest::model = nullptr;

/** Decode one signal through a session in chunks of @p chunk. */
pipeline::RecognitionResult
decodeChunked(const pipeline::AsrModel &model, const SessionConfig &cfg,
              const frontend::AudioSignal &audio, std::size_t chunk)
{
    StreamingSession session(model, cfg);
    const auto &s = audio.samples;
    for (std::size_t base = 0; base < s.size(); base += chunk) {
        const std::size_t len = std::min(chunk, s.size() - base);
        session.pushAudio(std::span<const float>(s.data() + base, len));
    }
    return session.finish();
}

} // namespace

TEST_F(ServerTest, StreamingMatchesBatchPipelineExactly)
{
    // The streaming session (incremental MFCC, lagged per-frame DNN
    // scoring, frame-synchronous search) must be bit-identical to
    // the batch facade over the same model.
    const frontend::AudioSignal audio = testAudio(7);

    const frontend::FeatureMatrix feats =
        model->mfcc().compute(audio);
    const acoustic::AcousticLikelihoods scores =
        model->scorer().score(feats);
    decoder::DecoderConfig dcfg;
    dcfg.beam = model->config().beam;
    decoder::ViterbiDecoder batch(model->net(), dcfg);
    const auto batch_result = batch.decode(scores);

    for (const std::size_t chunk :
         {std::size_t(1), std::size_t(160), std::size_t(997),
          std::size_t(1) << 20}) {
        SessionConfig scfg;
        const auto r = decodeChunked(*model, scfg, audio, chunk);
        EXPECT_EQ(r.words, batch_result.words) << "chunk " << chunk;
        EXPECT_FLOAT_EQ(r.score, batch_result.score)
            << "chunk " << chunk;
    }
}

TEST_F(ServerTest, BackendsAgreeUnderSessionApi)
{
    const frontend::AudioSignal audio = testAudio(11);

    SessionConfig sw;
    sw.searchBackend = "viterbi";
    const auto r_sw = decodeChunked(*model, sw, audio, 160);

    SessionConfig hw;
    hw.searchBackend = "accel";
    const auto r_hw = decodeChunked(*model, hw, audio, 160);

    EXPECT_EQ(r_hw.words, r_sw.words);
    EXPECT_NEAR(r_hw.score, r_sw.score, 1e-3f);
    EXPECT_GT(r_hw.accelStats.frames, 0u);
}

TEST_F(ServerTest, ZeroLengthAudio)
{
    SessionConfig scfg;
    StreamingSession session(*model, scfg);
    session.pushAudio({});
    EXPECT_TRUE(session.partialWords().empty());
    const auto r = session.finish();
    EXPECT_TRUE(r.words.empty());
    EXPECT_EQ(session.framesDecoded(), 0u);
    EXPECT_EQ(r.audioSeconds, 0.0);
}

TEST_F(ServerTest, AudioShorterThanOneWindowYieldsNoFrames)
{
    // 399 samples at 16 kHz is one sample short of a 25 ms window.
    SessionConfig scfg;
    StreamingSession session(*model, scfg);
    std::vector<float> samples(399, 0.01f);
    session.pushAudio(samples);
    const auto r = session.finish();
    EXPECT_EQ(session.framesDecoded(), 0u);
    EXPECT_TRUE(r.words.empty());
}

TEST_F(ServerTest, SingleFrameUtterance)
{
    // Exactly one analysis window -> one decoded frame, and the
    // result matches the batch path on the same audio.
    const frontend::AudioSignal full = testAudio(13);
    frontend::AudioSignal audio;
    audio.sampleRate = full.sampleRate;
    audio.samples.assign(full.samples.begin(),
                         full.samples.begin() + 400);

    SessionConfig scfg;
    const auto r = decodeChunked(*model, scfg, audio, 64);

    const frontend::FeatureMatrix feats =
        model->mfcc().compute(audio);
    ASSERT_EQ(feats.size(), 1u);
    const auto scores = model->scorer().score(feats);
    decoder::DecoderConfig dcfg;
    dcfg.beam = model->config().beam;
    decoder::ViterbiDecoder batch(model->net(), dcfg);
    const auto batch_result = batch.decode(scores);

    EXPECT_EQ(r.words, batch_result.words);
    EXPECT_FLOAT_EQ(r.score, batch_result.score);
}

TEST_F(ServerTest, UltraTightBeamPrunesEverythingGracefully)
{
    // A beam this tight prunes everything but the frame-best token;
    // when that chain hits a dead end the whole search dies.  The
    // session must finish cleanly (empty hypothesis, log-zero score)
    // and both backends must agree on the outcome.
    const frontend::AudioSignal audio = testAudio(17);

    SessionConfig sw;
    sw.beam = 1e-4f;
    const auto r_sw = decodeChunked(*model, sw, audio, 160);

    SessionConfig hw = sw;
    hw.searchBackend = "accel";
    const auto r_hw = decodeChunked(*model, hw, audio, 160);

    EXPECT_EQ(r_hw.words, r_sw.words);
    if (r_sw.score > wfst::kLogZero) {
        EXPECT_NEAR(r_hw.score, r_sw.score, 1e-3f);
    } else {
        // Search died: both backends must report it the same way.
        EXPECT_TRUE(r_sw.words.empty());
        EXPECT_LE(r_hw.score, wfst::kLogZero);
    }

    // A merely tight beam keeps the best chain alive; the backends
    // must still agree and actually prune.
    SessionConfig tight;
    tight.beam = 2.0f;
    const auto t_sw = decodeChunked(*model, tight, audio, 160);
    tight.searchBackend = "accel";
    const auto t_hw = decodeChunked(*model, tight, audio, 160);
    EXPECT_GT(t_sw.score, wfst::kLogZero);
    EXPECT_EQ(t_hw.words, t_sw.words);
    EXPECT_NEAR(t_hw.score, t_sw.score, 1e-3f);
}

TEST_F(ServerTest, PartialHypothesesAreMonotonicallyUsable)
{
    const frontend::AudioSignal audio = testAudio(19, 8);
    SessionConfig scfg;
    StreamingSession session(*model, scfg);

    const auto &s = audio.samples;
    std::size_t partials_seen = 0;
    for (std::size_t base = 0; base < s.size(); base += 640) {
        const std::size_t len = std::min<std::size_t>(640, s.size() - base);
        session.pushAudio(std::span<const float>(s.data() + base, len));
        partials_seen += session.partialWords().empty() ? 0 : 1;
    }
    const auto r = session.finish();
    EXPECT_GT(session.framesDecoded(), 0u);
    // The utterance produces words, and at least one partial was
    // already visible mid-stream.
    if (!r.words.empty()) {
        EXPECT_GT(partials_seen, 0u);
    }
}

TEST_F(ServerTest, ConcurrentBitIdenticalToSequential)
{
    // The same submissions through 1 worker and 4 workers (and a
    // plain sequential session loop) must produce bit-identical
    // per-utterance words and scores: shared state is immutable and
    // per-session RNG streams make results scheduling-independent.
    constexpr unsigned kUtterances = 6;
    std::vector<frontend::AudioSignal> corpus;
    for (unsigned u = 0; u < kUtterances; ++u)
        corpus.push_back(testAudio(100 + u));

    // Sequential reference via bare sessions.
    std::vector<pipeline::RecognitionResult> seq;
    for (unsigned u = 0; u < kUtterances; ++u) {
        SessionConfig scfg;
        scfg.id = u;
        scfg.baseSeed = 9;
        scfg.ditherAmplitude = 1e-4f;
        seq.push_back(decodeChunked(*model, scfg, corpus[u], 160));
    }

    for (const unsigned threads : {1u, 4u}) {
        EngineOptions cfg;
        cfg.numThreads = threads;
        cfg.baseSeed = 9;
        cfg.ditherAmplitude = 1e-4f;
        Engine engine(*model, cfg);

        std::vector<std::future<pipeline::RecognitionResult>> futures;
        for (unsigned u = 0; u < kUtterances; ++u)
            futures.push_back(engine.submit(corpus[u]));

        for (unsigned u = 0; u < kUtterances; ++u) {
            const auto r = futures[u].get();
            EXPECT_EQ(r.sessionId, u);
            EXPECT_EQ(r.words, seq[u].words)
                << "threads " << threads << " utterance " << u;
            EXPECT_FLOAT_EQ(r.score, seq[u].score)
                << "threads " << threads << " utterance " << u;
        }

        const auto snap = engine.stats();
        EXPECT_EQ(snap.utterances, kUtterances);
        EXPECT_GT(snap.audioSeconds, 0.0);
        EXPECT_GT(snap.utterancesPerSecond(), 0.0);
        EXPECT_GE(snap.latencyP99Ms, snap.latencyP50Ms);
    }
}

TEST_F(ServerTest, DitherSeedingIsPerSessionNotShared)
{
    // Same base seed -> identical stream per session id; a different
    // base seed changes the derived streams.  (With a shared RNG the
    // result would depend on scheduling; deriveSeed makes it a pure
    // function of (base, id).)
    const frontend::AudioSignal audio = testAudio(23);

    SessionConfig a;
    a.id = 3;
    a.baseSeed = 42;
    a.ditherAmplitude = 1e-3f;
    const auto r1 = decodeChunked(*model, a, audio, 160);
    const auto r2 = decodeChunked(*model, a, audio, 160);
    EXPECT_EQ(r1.words, r2.words);
    EXPECT_FLOAT_EQ(r1.score, r2.score);

    EXPECT_NE(deriveSeed(42, 3), deriveSeed(43, 3));
    EXPECT_NE(deriveSeed(42, 3), deriveSeed(42, 4));
}

TEST_F(ServerTest, SchedulerDrainAndReuse)
{
    EngineOptions cfg;
    cfg.numThreads = 2;
    Engine engine(*model, cfg);

    auto f1 = engine.submit(testAudio(31));
    engine.drain();
    EXPECT_EQ(engine.stats().utterances, 1u);

    auto f2 = engine.submit(testAudio(32));
    auto f3 = engine.submit(testAudio(33));
    engine.drain();
    EXPECT_EQ(engine.stats().utterances, 3u);
    EXPECT_EQ(engine.submittedCount(), 3u);

    // Futures stay valid after drain.
    EXPECT_GT(f1.get().audioSeconds, 0.0);
    EXPECT_GT(f2.get().audioSeconds, 0.0);
    EXPECT_GT(f3.get().audioSeconds, 0.0);
}

TEST_F(ServerTest, EngineStatsSnapshotArithmetic)
{
    EngineStats stats;
    stats.recordUtterance(2.0, 0.5, 0.6);
    stats.recordUtterance(1.0, 0.5, 0.1);
    const auto snap = stats.snapshot(4.0);
    EXPECT_EQ(snap.utterances, 2u);
    EXPECT_NEAR(snap.audioSeconds, 3.0, 1e-9);
    EXPECT_NEAR(snap.decodeSeconds, 1.0, 1e-9);
    EXPECT_NEAR(snap.aggregateRtf(), 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(snap.utterancesPerSecond(), 0.5, 1e-9);
    EXPECT_GE(snap.latencyMaxMs, 599.0);
    const auto set = snap.toStatSet();
    EXPECT_EQ(set.get("engine.utterances"), 2u);
    EXPECT_FALSE(snap.render().empty());
}

TEST_F(ServerTest, EngineStatsSearchSplitAndArenaTelemetry)
{
    EngineStats stats;
    UtteranceSample s1;
    s1.audioSeconds = 2.0;
    s1.decodeSeconds = 1.0;
    s1.latencySeconds = 1.1;
    s1.searchSeconds = 0.75;
    s1.dnnSeconds = 0.25;
    s1.arenaPeakEntries = 5000;
    s1.arenaGcRuns = 3;
    s1.bpAppendsSkipped = 42;
    stats.recordUtterance(s1);
    UtteranceSample s2 = s1;
    s2.arenaPeakEntries = 2000;  // smaller peak: max, not sum
    stats.recordUtterance(s2);

    const auto snap = stats.snapshot(4.0);
    EXPECT_NEAR(snap.searchSeconds, 1.5, 1e-9);
    EXPECT_NEAR(snap.dnnSeconds, 0.5, 1e-9);
    EXPECT_NEAR(snap.searchShare(), 0.75, 1e-9);
    EXPECT_EQ(snap.arenaPeakEntries, 5000u);
    EXPECT_EQ(snap.arenaGcRuns, 6u);
    EXPECT_EQ(snap.bpAppendsSkipped, 84u);
    const auto set = snap.toStatSet();
    EXPECT_EQ(set.get("engine.arena_peak_entries"), 5000u);
    EXPECT_NE(snap.render().find("decode split"), std::string::npos);

    stats.clear();
    const auto zero = stats.snapshot();
    EXPECT_EQ(zero.arenaPeakEntries, 0u);
    EXPECT_NEAR(zero.searchShare(), 0.0, 1e-12);
}

TEST_F(ServerTest, ArenaGcWatermarkFlowsThroughSchedulerUnchanged)
{
    // An engine with the GC watermark enabled must produce results
    // bit-identical to one without, and the arena telemetry must
    // reach the engine snapshot.
    const frontend::AudioSignal audio = testAudio(57);

    EngineOptions plain;
    plain.numThreads = 2;
    Engine ref(*model, plain);
    const auto expected = ref.submit(audio).get();

    EngineOptions gc = plain;
    gc.arenaGcWatermark = 256;  // tiny: collect constantly
    Engine engine(*model, gc);
    const auto r = engine.submit(audio).get();
    engine.drain();

    EXPECT_EQ(r.words, expected.words);
    EXPECT_FLOAT_EQ(r.score, expected.score);

    const auto snap = engine.stats();
    EXPECT_GT(snap.searchSeconds, 0.0);
    EXPECT_GT(snap.dnnSeconds, 0.0);
    EXPECT_GT(snap.arenaPeakEntries, 0u);
    EXPECT_GT(r.searchStats.arenaGcRuns, 0u);
    EXPECT_EQ(snap.arenaPeakEntries,
              r.searchStats.arenaPeakEntries);
}
