/**
 * @file
 * Tests for cross-session batched DNN scoring (api::Engine's
 * coordinator + server::BatchScorer): per-utterance results must be
 * bit-identical to per-session inline scoring (an inline
 * StreamingSession, the reference decoder) for any thread count and
 * any batch-session cap -- with dither and with the accelerator
 * search backend too -- the deferred-session protocol must
 * round-trip by hand, and the engine must actually coalesce frames
 * (mean batch > 1 with many concurrent sessions).
 */

#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "pipeline/model.hh"
#include "server/batch_scorer.hh"
#include "server/session.hh"
#include "wfst/generate.hh"

using namespace asr;
using namespace asr::server;
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

class ServerBatchTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        wfst::GeneratorConfig gcfg;
        gcfg.numStates = 200;
        gcfg.numPhonemes = kPhonemes;
        gcfg.numWords = 40;
        gcfg.seed = 2026;
        net = new wfst::Wfst(wfst::generateWfst(gcfg));

        pipeline::AsrSystemConfig mcfg;
        mcfg.numPhonemes = kPhonemes;
        mcfg.hiddenLayers = {32};
        mcfg.trainUtterPerPhoneme = 8;
        mcfg.trainEpochs = 8;
        mcfg.beam = 14.0f;
        mcfg.seed = 47;
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

    static frontend::AudioSignal
    testAudio(std::uint64_t seed, unsigned phones = 6)
    {
        Rng rng(seed);
        std::vector<std::uint32_t> seq;
        for (unsigned i = 0; i < phones; ++i)
            seq.push_back(1 + std::uint32_t(rng.below(kPhonemes)));
        return model->synthesizer().synthesize(seq, 3);
    }

    /** Run @p corpus through an engine and collect the results. */
    static std::vector<pipeline::RecognitionResult>
    runEngine(const EngineOptions &cfg,
              const std::vector<frontend::AudioSignal> &corpus,
              EngineSnapshot *snap = nullptr)
    {
        api::Engine engine(*model, cfg);
        std::vector<std::future<pipeline::RecognitionResult>> futures;
        futures.reserve(corpus.size());
        for (const auto &audio : corpus)
            futures.push_back(engine.submit(audio));
        std::vector<pipeline::RecognitionResult> results;
        results.reserve(futures.size());
        for (auto &f : futures)
            results.push_back(f.get());
        if (snap) {
            engine.drain();
            *snap = engine.stats();
        }
        return results;
    }

    /**
     * Decode @p corpus through inline-scoring sessions with the
     * engine's knobs and ids (0..n-1 in submission order): the
     * reference every engine result must reproduce.
     */
    static std::vector<pipeline::RecognitionResult>
    runReference(const EngineOptions &cfg,
                 const std::vector<frontend::AudioSignal> &corpus)
    {
        std::vector<pipeline::RecognitionResult> results;
        results.reserve(corpus.size());
        for (std::size_t u = 0; u < corpus.size(); ++u) {
            SessionConfig scfg;
            static_cast<SessionKnobs &>(scfg) = cfg;
            scfg.id = u;
            scfg.baseSeed = cfg.baseSeed;
            StreamingSession session(*model, scfg);
            session.pushAudio(corpus[u].samples);
            results.push_back(session.finish());
        }
        return results;
    }

    /** Assert @p got reproduces @p want utterance by utterance. */
    static void
    expectIdentical(const std::vector<pipeline::RecognitionResult> &want,
                    const std::vector<pipeline::RecognitionResult> &got)
    {
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t u = 0; u < want.size(); ++u) {
            EXPECT_EQ(want[u].words, got[u].words) << "utterance " << u;
            EXPECT_EQ(want[u].score, got[u].score) << "utterance " << u;
            EXPECT_EQ(want[u].sessionId, got[u].sessionId);
        }
    }

    static std::vector<frontend::AudioSignal>
    corpus(unsigned count)
    {
        std::vector<frontend::AudioSignal> out;
        out.reserve(count);
        for (unsigned u = 0; u < count; ++u)
            out.push_back(testAudio(100 + u));
        return out;
    }

    static wfst::Wfst *net;
    static pipeline::AsrModel *model;
};

wfst::Wfst *ServerBatchTest::net = nullptr;
pipeline::AsrModel *ServerBatchTest::model = nullptr;

} // namespace

TEST_F(ServerBatchTest, BatchModeMatchesPerSessionExactly)
{
    const auto audios = corpus(10);
    EngineOptions cfg;
    cfg.numThreads = 1;
    cfg.baseSeed = 11;
    expectIdentical(runReference(cfg, audios), runEngine(cfg, audios));
}

TEST_F(ServerBatchTest, ThreadCountDoesNotChangeBatchModeResults)
{
    // Dither draws from each session's private RNG, so this also
    // proves the stream is keyed on (base seed, session id) only.
    const auto audios = corpus(8);
    EngineOptions cfg;
    cfg.baseSeed = 3;
    cfg.ditherAmplitude = 1e-4f;
    const auto want = runReference(cfg, audios);
    for (const unsigned threads : {1u, 2u, 4u}) {
        for (const std::size_t slots : {std::size_t(2),
                                        std::size_t(32)}) {
            SCOPED_TRACE(testing::Message() << threads << " threads, "
                                            << slots << " slots");
            cfg.numThreads = threads;
            cfg.maxBatchSessions = slots;
            expectIdentical(want, runEngine(cfg, audios));
        }
    }
}

TEST_F(ServerBatchTest, SessionCapDoesNotChangeResults)
{
    const auto audios = corpus(9);
    EngineOptions cfg;
    cfg.numThreads = 2;
    cfg.baseSeed = 5;
    const auto want = runReference(cfg, audios);
    cfg.maxBatchSessions = 32;
    expectIdentical(want, runEngine(cfg, audios));
    cfg.maxBatchSessions = 2;  // forces several admission waves
    expectIdentical(want, runEngine(cfg, audios));
}

TEST_F(ServerBatchTest, CoalescesFramesAcrossSessions)
{
    const auto audios = corpus(8);
    EngineOptions cfg;
    cfg.numThreads = 1;
    EngineSnapshot snap;
    runEngine(cfg, audios, &snap);
    EXPECT_EQ(snap.utterances, 8u);
    EXPECT_GT(snap.dnnBatches, 0u);
    EXPECT_GT(snap.dnnBatchedFrames, 0u);
    // With 8 sessions in flight the steady-state tick scores ~8
    // frames per pass; even with ramp-up/drain ticks the mean must
    // be well above per-frame scoring.
    EXPECT_GT(snap.dnnMeanBatchRows(), 2.0);
    EXPECT_GE(snap.dnnMaxBatchRows, 8.0);
}

TEST_F(ServerBatchTest, ZeroLengthAndTinyAudio)
{
    std::vector<frontend::AudioSignal> audios;
    frontend::AudioSignal empty;
    empty.sampleRate = model->mfcc().config().sampleRate;
    audios.push_back(empty);                  // zero samples
    frontend::AudioSignal tiny = testAudio(1);
    tiny.samples.resize(100);                 // shorter than a window
    audios.push_back(tiny);
    audios.push_back(testAudio(2));           // a normal utterance

    EngineOptions cfg;
    cfg.numThreads = 1;
    const auto got = runEngine(cfg, audios);

    ASSERT_EQ(got.size(), 3u);
    EXPECT_TRUE(got[0].words.empty());
    expectIdentical(runReference(cfg, audios), got);
}

TEST_F(ServerBatchTest, DeferredProtocolRoundTripsByHand)
{
    // Drive one deferred session directly through the BatchScorer
    // and check it against a plain inline session.
    const frontend::AudioSignal audio = testAudio(42);

    SessionConfig inlineCfg;
    inlineCfg.id = 7;
    StreamingSession inlineSession(*model, inlineCfg);
    inlineSession.pushAudio(audio.samples);
    const auto want = inlineSession.finish();

    SessionConfig deferCfg = inlineCfg;
    deferCfg.deferScoring = true;
    StreamingSession deferred(*model, deferCfg);
    BatchScorer scorer(*model);
    StreamingSession *sessions[] = {&deferred};

    const auto drainPending = [&] {
        if (scorer.score(sessions) > 0)
            deferred.consumePendingScores(scorer.scores(),
                                          scorer.base(0),
                                          scorer.secondsShare(0));
    };
    for (std::size_t base = 0; base < audio.samples.size();
         base += 160) {
        const std::size_t len =
            std::min<std::size_t>(160, audio.samples.size() - base);
        deferred.pushAudio(std::span<const float>(
            audio.samples.data() + base, len));
        drainPending();
    }
    deferred.flushPending();
    drainPending();
    const auto got = deferred.finalizeFinish();

    EXPECT_EQ(want.words, got.words);
    EXPECT_EQ(want.score, got.score);
    EXPECT_EQ(want.audioSeconds, got.audioSeconds);
}

TEST_F(ServerBatchTest, AcceleratorBackendInBatchMode)
{
    // Batch scoring composes with the accelerator search backend,
    // cycle simulation included: the timing model sees the same
    // frames in the same order, so even its cycle count matches.
    const auto audios = corpus(4);
    EngineOptions cfg;
    cfg.searchBackend = "accel";
    cfg.runTiming = true;
    const auto want = runReference(cfg, audios);
    for (const unsigned threads : {1u, 3u}) {
        for (const std::size_t slots : {std::size_t(1),
                                        std::size_t(32)}) {
            SCOPED_TRACE(testing::Message() << threads << " threads, "
                                            << slots << " slots");
            cfg.numThreads = threads;
            cfg.maxBatchSessions = slots;
            const auto got = runEngine(cfg, audios);
            expectIdentical(want, got);
            for (std::size_t u = 0; u < got.size(); ++u) {
                EXPECT_GT(got[u].accelStats.frames, 0u);
                EXPECT_GT(got[u].accelStats.cycles, 0u);
                EXPECT_EQ(got[u].accelStats.cycles,
                          want[u].accelStats.cycles);
            }
        }
    }
}
