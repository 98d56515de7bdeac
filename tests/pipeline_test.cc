/**
 * @file
 * Tests for the pipeline module: corpus sampling with ground truth,
 * beam calibration, the batched system model, and the end-to-end
 * system (audio in, words out) through api::Engine over a model
 * trained from an AsrSystemConfig.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "acoustic/scorer.hh"
#include "api/engine.hh"
#include "decoder/viterbi.hh"
#include "decoder/wer.hh"
#include "pipeline/calibrate.hh"
#include "pipeline/corpus.hh"
#include "pipeline/model.hh"
#include "pipeline/system.hh"
#include "wfst/generate.hh"

using namespace asr;
using namespace asr::pipeline;

namespace {

wfst::Wfst
makeNet(wfst::StateId states, std::uint32_t phonemes,
        std::uint64_t seed)
{
    wfst::GeneratorConfig cfg;
    cfg.numStates = states;
    cfg.numPhonemes = phonemes;
    cfg.numWords = 40;
    cfg.seed = seed;
    return wfst::generateWfst(cfg);
}

} // namespace

TEST(Corpus, UtteranceHasRequestedLength)
{
    const wfst::Wfst net = makeNet(500, 16, 3);
    CorpusConfig cfg;
    cfg.framesPerUtterance = 80;
    Rng rng(cfg.seed);
    const Utterance utt = sampleUtterance(net, cfg, rng);
    EXPECT_EQ(utt.numFrames(), 80u);
    for (auto p : utt.framePhonemes) {
        ASSERT_GE(p, 1u);
        ASSERT_LE(p, 16u);
    }
}

TEST(Corpus, DeterministicWithSeed)
{
    const wfst::Wfst net = makeNet(500, 16, 3);
    CorpusConfig cfg;
    const auto a = sampleCorpus(net, cfg, 3);
    const auto b = sampleCorpus(net, cfg, 3);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].framePhonemes, b[i].framePhonemes);
        ASSERT_EQ(a[i].words, b[i].words);
    }
}

TEST(Corpus, TruthDrivenScoresDecodeToLowWer)
{
    // The sampled path is a real path through the WFST; with
    // strongly truth-biased acoustics the decoder must recover most
    // of the ground-truth words.  A generous phoneme inventory keeps
    // label aliasing (several arcs sharing one phoneme) rare.
    const wfst::Wfst net = makeNet(300, 256, 7);
    CorpusConfig ccfg;
    ccfg.framesPerUtterance = 80;
    Rng rng(ccfg.seed);
    const Utterance utt = sampleUtterance(net, ccfg, rng);
    ASSERT_FALSE(utt.words.empty());

    acoustic::SyntheticScorerConfig scfg;
    scfg.numPhonemes = 256;
    scfg.truthBoost = 12.0;
    scfg.seed = 5;
    const auto scores = acoustic::SyntheticScorer(scfg).generate(
        utt.numFrames(), utt.framePhonemes);

    decoder::DecoderConfig dcfg;
    dcfg.beam = 10.0f;
    decoder::ViterbiDecoder dec(net, dcfg);
    const auto result = dec.decode(scores);

    const auto wer = decoder::scoreWer(utt.words, result.words);
    EXPECT_LT(wer.wer(), 0.4)
        << "ref " << utt.words.size() << " words, hyp "
        << result.words.size();
}

TEST(Calibrate, HitsTokenTarget)
{
    const wfst::Wfst net = makeNet(20000, 64, 11);
    acoustic::SyntheticScorerConfig scfg;
    scfg.numPhonemes = 64;
    scfg.seed = 21;
    const auto scores = acoustic::SyntheticScorer(scfg).generate(30);

    const BeamCalibration cal =
        calibrateBeam(net, scores, 500.0, 0.5f, 10.0f, 10);
    EXPECT_GT(cal.tokensPerFrame, 150.0);
    EXPECT_LT(cal.tokensPerFrame, 1500.0);
    EXPECT_GT(cal.beam, 0.5f);
}

TEST(SystemModel, SequentialVsPipelined)
{
    SystemModelInput in;
    in.numBatches = 10;
    in.dnnSecondsPerBatch = 0.02;
    in.viterbiSecondsPerBatch = 0.03;
    in.pipelined = false;
    const SystemTime seq = modelSystem(in);
    EXPECT_NEAR(seq.seconds, 0.5, 1e-9);

    in.pipelined = true;
    const SystemTime pipe = modelSystem(in);
    // dnn + 9 * max(dnn, vit) + vit = 0.02 + 0.27 + 0.03.
    EXPECT_NEAR(pipe.seconds, 0.32, 1e-9);
    EXPECT_LT(pipe.seconds, seq.seconds);
}

TEST(SystemModel, EnergyChargesBusyTimeOnly)
{
    SystemModelInput in;
    in.numBatches = 4;
    in.dnnSecondsPerBatch = 0.01;
    in.viterbiSecondsPerBatch = 0.02;
    in.gpuPowerW = 76.4;
    in.searchPowerW = 0.5;
    in.pipelined = true;
    const SystemTime t = modelSystem(in);
    EXPECT_NEAR(t.energyJ, 4 * 0.01 * 76.4 + 4 * 0.02 * 0.5, 1e-9);
}

TEST(SystemModel, PipelineSpeedupApproachesTwoWhenBalanced)
{
    // The paper's 1.87x end-to-end gain comes from overlapping two
    // nearly balanced stages.
    SystemModelInput in;
    in.numBatches = 50;
    in.dnnSecondsPerBatch = 0.02;
    in.viterbiSecondsPerBatch = 0.021;
    in.pipelined = false;
    const double seq = modelSystem(in).seconds;
    in.pipelined = true;
    const double pipe = modelSystem(in).seconds;
    EXPECT_GT(seq / pipe, 1.8);
    EXPECT_LT(seq / pipe, 2.0);
}

TEST(AsrSystem, EndToEndRecognition)
{
    // Tiny end-to-end system: build a WFST, train the acoustic
    // model on synthetic voices, recognize a synthesized utterance.
    const wfst::Wfst net = makeNet(200, 10, 2024);

    AsrSystemConfig cfg;
    cfg.numPhonemes = 10;
    cfg.hiddenLayers = {48};
    cfg.trainUtterPerPhoneme = 12;
    cfg.trainEpochs = 12;
    cfg.beam = 14.0f;
    api::EngineOptions opts;
    opts.searchBackend = "accel";
    opts.runTiming = true;
    api::Engine system(net, cfg, opts);

    // The acoustic model must have learned the synthetic phonemes.
    EXPECT_GT(system.model().acousticModelAccuracy(), 0.7f);

    // Sample a true path and synthesize its audio.
    CorpusConfig ccfg;
    ccfg.framesPerUtterance = 40;
    Rng rng(5);
    const Utterance utt = sampleUtterance(net, ccfg, rng);
    std::vector<std::uint32_t> phones(utt.framePhonemes.begin(),
                                      utt.framePhonemes.end());
    const frontend::AudioSignal audio =
        system.model().synthesizer().synthesize(phones, 1);

    const RecognitionResult result = system.recognize(audio);
    EXPECT_GT(result.score, wfst::kLogZero);
    EXPECT_GT(result.accelStats.cycles, 0u);
    EXPECT_GE(result.searchSeconds, 0.0);
}

TEST(AsrSystem, SoftwareBackendAgrees)
{
    const wfst::Wfst net = makeNet(150, 8, 77);
    AsrSystemConfig cfg;
    cfg.numPhonemes = 8;
    cfg.hiddenLayers = {32};
    cfg.trainUtterPerPhoneme = 8;
    cfg.trainEpochs = 8;
    cfg.seed = 31;
    const AsrModel model(net, cfg);

    api::EngineOptions accel;
    accel.searchBackend = "accel";
    accel.runTiming = true;
    api::Engine hw(model, accel);
    api::Engine sw(model, api::EngineOptions());

    const frontend::AudioSignal audio =
        model.synthesizer().synthesize({1, 2, 3, 4, 5}, 4);
    const auto r_hw = hw.recognize(audio);
    const auto r_sw = sw.recognize(audio);
    EXPECT_EQ(r_hw.words, r_sw.words);
    EXPECT_NEAR(r_hw.score, r_sw.score, 1e-3f);
}

TEST(AsrSystem, TrainingSetSmallerThanOneBatchTrains)
{
    // 4 phonemes x 5 utterances give 60 frames, fewer than one
    // 64-frame mini-batch: they train as one batch of the whole set.
    const wfst::Wfst net = makeNet(100, 4, 3);
    AsrSystemConfig cfg;
    cfg.numPhonemes = 4;
    cfg.hiddenLayers = {32};
    cfg.trainUtterPerPhoneme = 5;
    cfg.trainEpochs = 10;
    cfg.seed = 7;
    const AsrModel trained(net, cfg);
    cfg.trainEpochs = 0;
    const AsrModel untrained(net, cfg);

    const acoustic::Dnn &a = trained.dnn(), &b = untrained.dnn();
    ASSERT_EQ(a.numLayers(), b.numLayers());
    bool moved = false;
    for (std::size_t l = 0; l < a.numLayers(); ++l) {
        const auto &wa = a.layerWeights(l).data();
        const auto &wb = b.layerWeights(l).data();
        moved = moved || std::memcmp(wa.data(), wb.data(),
                                     wa.size() * sizeof(float)) != 0;
    }
    EXPECT_TRUE(moved) << "no SGD step ran";
    // Chance is 1 / 4.
    EXPECT_GT(trained.acousticModelAccuracy(), 0.5f);
}
