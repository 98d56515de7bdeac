/**
 * @file
 * Tests for the software Viterbi beam-search decoder: the Figure-2
 * worked example, agreement with brute-force full Viterbi, beam and
 * histogram pruning behaviour, and WER scoring.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "acoustic/scorer.hh"
#include "decoder/reference.hh"
#include "decoder/viterbi.hh"
#include "decoder/wer.hh"
#include "wfst/examples.hh"
#include "wfst/generate.hh"

using namespace asr;
using namespace asr::decoder;

namespace {

acoustic::AcousticLikelihoods
syntheticScores(std::uint32_t phonemes, std::size_t frames,
                std::uint64_t seed)
{
    acoustic::SyntheticScorerConfig cfg;
    cfg.numPhonemes = phonemes;
    cfg.seed = seed;
    return acoustic::SyntheticScorer(cfg).generate(frames);
}

} // namespace

TEST(Decoder, Figure2RecognizesLow)
{
    const wfst::Figure2Example ex = wfst::buildFigure2Example();
    DecoderConfig cfg;
    cfg.beam = ex.beam;
    ViterbiDecoder dec(ex.wfst, cfg);
    const auto scores =
        acoustic::AcousticLikelihoods::fromNested(ex.frames);
    const DecodeResult r = dec.decode(scores);

    ASSERT_EQ(r.words.size(), 1u);
    EXPECT_EQ(ex.words.name(r.words[0]), "low");
    EXPECT_NEAR(r.score, ex.expectedBestScore, 1e-4f);
    EXPECT_EQ(r.bestState, 3u);
    // Figure 2c: tokens 1 and 4 are pruned away at frame 2.
    EXPECT_EQ(r.stats.tokensPruned, 2u);
    EXPECT_EQ(r.stats.framesDecoded, 3u);
}

TEST(Decoder, Figure2WideBeamKeepsEveryToken)
{
    const wfst::Figure2Example ex = wfst::buildFigure2Example();
    DecoderConfig cfg;
    cfg.beam = 100.0f;
    ViterbiDecoder dec(ex.wfst, cfg);
    const auto scores =
        acoustic::AcousticLikelihoods::fromNested(ex.frames);
    const DecodeResult r = dec.decode(scores);
    EXPECT_EQ(r.stats.tokensPruned, 0u);
    // The answer does not change: "low" still wins.
    ASSERT_EQ(r.words.size(), 1u);
    EXPECT_EQ(ex.words.name(r.words[0]), "low");
}

TEST(Decoder, MatchesFullViterbiWithoutBeam)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        wfst::GeneratorConfig gcfg;
        gcfg.numStates = 60;
        gcfg.numPhonemes = 8;
        gcfg.numWords = 15;
        gcfg.seed = seed;
        const wfst::Wfst net = wfst::generateWfst(gcfg);
        const auto scores = syntheticScores(8, 15, seed + 50);

        DecoderConfig cfg;
        cfg.beam = 1e9f;
        ViterbiDecoder dec(net, cfg);
        const DecodeResult beam_result = dec.decode(scores);
        const DecodeResult ref = fullViterbiReference(net, scores);

        EXPECT_NEAR(beam_result.score, ref.score, 1e-3f)
            << "seed " << seed;
        EXPECT_EQ(beam_result.words, ref.words) << "seed " << seed;
    }
}

TEST(Decoder, BeamMonotonicity)
{
    // A wider beam can only improve (or preserve) the best score.
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 300;
    gcfg.numPhonemes = 16;
    gcfg.seed = 123;
    const wfst::Wfst net = wfst::generateWfst(gcfg);
    const auto scores = syntheticScores(16, 20, 7);

    float prev_score = -1e30f;
    std::uint64_t prev_tokens = 0;
    for (float beam : {1.0f, 2.0f, 4.0f, 8.0f}) {
        DecoderConfig cfg;
        cfg.beam = beam;
        ViterbiDecoder dec(net, cfg);
        const DecodeResult r = dec.decode(scores);
        EXPECT_GE(r.score, prev_score - 1e-4f) << "beam " << beam;
        EXPECT_GE(r.stats.tokensExpanded, prev_tokens);
        prev_score = r.score;
        prev_tokens = r.stats.tokensExpanded;
    }
}

TEST(Decoder, MaxActiveCapsExpansion)
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 2000;
    gcfg.numPhonemes = 16;
    gcfg.seed = 31;
    const wfst::Wfst net = wfst::generateWfst(gcfg);
    const auto scores = syntheticScores(16, 30, 9);

    DecoderConfig wide;
    wide.beam = 12.0f;
    ViterbiDecoder dec_wide(net, wide);
    const auto r_wide = dec_wide.decode(scores);

    DecoderConfig capped = wide;
    capped.maxActive = 50;
    ViterbiDecoder dec_capped(net, capped);
    const auto r_capped = dec_capped.decode(scores);

    EXPECT_LT(r_capped.stats.tokensExpanded,
              r_wide.stats.tokensExpanded);
    // The capped search still produces a hypothesis with a score no
    // better than the uncapped one.
    EXPECT_LE(r_capped.score, r_wide.score + 1e-4f);
}

TEST(Decoder, EpsilonArcsTraversedWithinFrame)
{
    // 0 --a--> 1 --eps--> 2(final); "a" then epsilon yields word w6
    // without consuming a second frame.  Final weights make the
    // epsilon-reached state win over its higher-scoring source.
    wfst::WfstBuilder b(3);
    b.addArc(0, 1, -0.1f, 1, 5);
    b.addArc(1, 2, -0.2f, wfst::kEpsilonLabel, 6);
    b.setFinal(2, 0.0f);
    const wfst::Wfst net = b.build();

    acoustic::AcousticLikelihoods scores(1, 2);
    scores.frame(0)[1] = -0.5f;
    scores.frame(0)[2] = -5.0f;

    DecoderConfig cfg;
    cfg.beam = 10.0f;
    cfg.useFinalWeights = true;
    ViterbiDecoder dec(net, cfg);
    const DecodeResult r = dec.decode(scores);
    ASSERT_EQ(r.words.size(), 2u);
    EXPECT_EQ(r.words[0], 5u);
    EXPECT_EQ(r.words[1], 6u);
    EXPECT_EQ(r.bestState, 2u);
    EXPECT_NEAR(r.score, -0.1f - 0.5f - 0.2f, 1e-5f);
}

TEST(Decoder, EpsilonCycleTerminates)
{
    // Epsilon cycle 1 <-> 2 with negative weights must terminate via
    // the strict improvement rule.
    wfst::WfstBuilder b(3);
    b.addArc(0, 1, -0.1f, 1);
    b.addArc(1, 2, -0.3f, wfst::kEpsilonLabel);
    b.addArc(2, 1, -0.3f, wfst::kEpsilonLabel);
    const wfst::Wfst net = b.build();

    acoustic::AcousticLikelihoods scores(1, 1);
    scores.frame(0)[1] = -0.2f;

    DecoderConfig cfg;
    cfg.beam = 50.0f;
    ViterbiDecoder dec(net, cfg);
    const DecodeResult r = dec.decode(scores);
    EXPECT_EQ(r.bestState, 1u);
    EXPECT_NEAR(r.score, -0.3f, 1e-5f);
}

TEST(Decoder, FinalWeightsSelectFinalState)
{
    // Two parallel paths; the higher-scoring end state is not final.
    wfst::WfstBuilder b(3);
    b.addArc(0, 1, -0.1f, 1);   // better path
    b.addArc(0, 2, -0.5f, 2);   // worse path but final
    b.setFinal(2, -0.01f);
    const wfst::Wfst net = b.build();

    acoustic::AcousticLikelihoods scores(1, 2);
    scores.frame(0)[1] = -0.3f;
    scores.frame(0)[2] = -0.3f;

    DecoderConfig plain;
    plain.beam = 10.0f;
    ViterbiDecoder dp(net, plain);
    EXPECT_EQ(dp.decode(scores).bestState, 1u);

    DecoderConfig with_finals = plain;
    with_finals.useFinalWeights = true;
    ViterbiDecoder df(net, with_finals);
    EXPECT_EQ(df.decode(scores).bestState, 2u);
}

TEST(Decoder, EmptyScoresYieldSeedOnly)
{
    const wfst::Figure2Example ex = wfst::buildFigure2Example();
    DecoderConfig cfg;
    cfg.beam = 10.0f;
    ViterbiDecoder dec(ex.wfst, cfg);
    const DecodeResult r =
        dec.decode(acoustic::AcousticLikelihoods(0, 5));
    EXPECT_TRUE(r.words.empty());
    EXPECT_EQ(r.bestState, ex.wfst.initialState());
    EXPECT_FLOAT_EQ(r.score, 0.0f);
}

// ---- WER scoring ----

TEST(Wer, ExactMatch)
{
    std::vector<wfst::WordId> ref{1, 2, 3};
    const WerResult r = scoreWer(ref, ref);
    EXPECT_EQ(r.errors(), 0u);
    EXPECT_DOUBLE_EQ(r.wer(), 0.0);
}

TEST(Wer, Substitution)
{
    std::vector<wfst::WordId> ref{1, 2, 3};
    std::vector<wfst::WordId> hyp{1, 9, 3};
    const WerResult r = scoreWer(ref, hyp);
    EXPECT_EQ(r.substitutions, 1u);
    EXPECT_EQ(r.insertions, 0u);
    EXPECT_EQ(r.deletions, 0u);
    EXPECT_NEAR(r.wer(), 1.0 / 3.0, 1e-9);
}

TEST(Wer, InsertionAndDeletion)
{
    std::vector<wfst::WordId> ref{1, 2, 3};
    std::vector<wfst::WordId> ins{1, 2, 9, 3};
    EXPECT_EQ(scoreWer(ref, ins).insertions, 1u);
    std::vector<wfst::WordId> del{1, 3};
    EXPECT_EQ(scoreWer(ref, del).deletions, 1u);
}

TEST(Wer, EmptySequences)
{
    std::vector<wfst::WordId> empty;
    std::vector<wfst::WordId> some{1, 2};
    EXPECT_DOUBLE_EQ(scoreWer(empty, empty).wer(), 0.0);
    EXPECT_EQ(scoreWer(empty, some).insertions, 2u);
    EXPECT_EQ(scoreWer(some, empty).deletions, 2u);
    EXPECT_DOUBLE_EQ(scoreWer(some, empty).wer(), 1.0);
}

TEST(Wer, AlignmentPicksMinimumEdits)
{
    // hyp aligns best with 1 sub + 1 del, not 2 subs + ins.
    std::vector<wfst::WordId> ref{1, 2, 3, 4};
    std::vector<wfst::WordId> hyp{1, 9, 4};
    const WerResult r = scoreWer(ref, hyp);
    EXPECT_EQ(r.errors(), 2u);
    EXPECT_NEAR(r.wer(), 0.5, 1e-9);
}

TEST(ViterbiStreaming, MatchesBatchDecode)
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 500;
    gcfg.numPhonemes = 32;
    gcfg.seed = 271;
    const wfst::Wfst net = wfst::generateWfst(gcfg);
    const auto scores = syntheticScores(32, 16, 828);

    DecoderConfig cfg;
    cfg.beam = 8.0f;
    ViterbiDecoder batch(net, cfg);
    const auto batch_result = batch.decode(scores);

    ViterbiDecoder stream(net, cfg);
    stream.streamBegin();
    for (std::size_t f = 0; f < scores.numFrames(); ++f)
        stream.streamFrame(scores.frame(f));
    const auto stream_result = stream.streamFinish();

    EXPECT_EQ(stream_result.words, batch_result.words);
    EXPECT_FLOAT_EQ(stream_result.score, batch_result.score);
    EXPECT_EQ(stream_result.bestState, batch_result.bestState);
    EXPECT_EQ(stream_result.stats.tokensExpanded,
              batch_result.stats.tokensExpanded);
}

TEST(ViterbiStreaming, PartialsAvailableMidStream)
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 300;
    gcfg.numPhonemes = 16;
    gcfg.wordLabelProb = 0.5;
    gcfg.seed = 272;
    const wfst::Wfst net = wfst::generateWfst(gcfg);
    const auto scores = syntheticScores(16, 12, 829);

    DecoderConfig cfg;
    cfg.beam = 8.0f;
    ViterbiDecoder dec(net, cfg);
    dec.streamBegin();
    std::size_t nonempty = 0;
    for (std::size_t f = 0; f < scores.numFrames(); ++f) {
        dec.streamFrame(scores.frame(f));
        nonempty += dec.streamPartial().empty() ? 0 : 1;
    }
    const auto r = dec.streamFinish();
    if (!r.words.empty()) {
        EXPECT_GT(nonempty, 0u);
    }
}

TEST(ViterbiStreaming, DecoderIsReusableAcrossUtterances)
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 200;
    gcfg.numPhonemes = 16;
    gcfg.seed = 273;
    const wfst::Wfst net = wfst::generateWfst(gcfg);

    DecoderConfig cfg;
    cfg.beam = 8.0f;
    ViterbiDecoder dec(net, cfg);
    const auto a1 = dec.decode(syntheticScores(16, 10, 1));
    const auto b = dec.decode(syntheticScores(16, 10, 2));
    const auto a2 = dec.decode(syntheticScores(16, 10, 1));
    EXPECT_EQ(a1.words, a2.words);
    EXPECT_FLOAT_EQ(a1.score, a2.score);
    (void)b;
}

TEST(ViterbiStreamingDeath, MisuseIsCaught)
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 50;
    gcfg.numPhonemes = 8;
    gcfg.seed = 274;
    const wfst::Wfst net = wfst::generateWfst(gcfg);
    DecoderConfig cfg;
    cfg.beam = 8.0f;
    ViterbiDecoder dec(net, cfg);
    EXPECT_DEATH(dec.streamPartial(), "outside an utterance");
    EXPECT_DEATH(dec.streamFinish(), "outside an utterance");
    dec.streamBegin();
    EXPECT_DEATH(dec.streamBegin(), "during an open utterance");
}
