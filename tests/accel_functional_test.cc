/**
 * @file
 * Functional correctness of the accelerator model: it must decode
 * exactly like the independent software reference on the paper's
 * Figure-2 example and on randomized WFSTs, and none of the timing
 * knobs (prefetching, cache sizes, hash sizes, sorted layout) may
 * change results.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "accel/accelerator.hh"
#include "acoustic/scorer.hh"
#include "common/logging.hh"
#include "decoder/reference.hh"
#include "decoder/viterbi.hh"
#include "wfst/examples.hh"
#include "wfst/generate.hh"
#include "wfst/sorted.hh"

using namespace asr;

namespace {

acoustic::AcousticLikelihoods
syntheticScores(std::uint32_t num_phonemes, std::size_t frames,
                std::uint64_t seed)
{
    acoustic::SyntheticScorerConfig cfg;
    cfg.numPhonemes = num_phonemes;
    cfg.seed = seed;
    return acoustic::SyntheticScorer(cfg).generate(frames);
}

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

[[maybe_unused]] const auto *env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

} // namespace

TEST(AccelFunctional, Figure2ExampleRecognizesLow)
{
    const wfst::Figure2Example ex = wfst::buildFigure2Example();
    accel::AcceleratorConfig cfg;
    cfg.beam = ex.beam;
    accel::Accelerator acc(ex.wfst, cfg);

    const auto scores =
        acoustic::AcousticLikelihoods::fromNested(ex.frames);
    const decoder::DecodeResult result = acc.decode(scores);

    ASSERT_EQ(result.words.size(), 1u);
    EXPECT_EQ(ex.words.name(result.words[0]), "low");
    EXPECT_NEAR(result.score, ex.expectedBestScore, 1e-4f);
    // The trace of Figure 2c: tokens 1 and 4 pruned at frame 2.
    EXPECT_EQ(acc.stats().tokensPruned, 2u);
}

TEST(AccelFunctional, Figure2MatchesSoftwareDecoderExactly)
{
    const wfst::Figure2Example ex = wfst::buildFigure2Example();
    accel::AcceleratorConfig acfg;
    acfg.beam = ex.beam;
    accel::Accelerator acc(ex.wfst, acfg);

    decoder::DecoderConfig dcfg;
    dcfg.beam = ex.beam;
    decoder::ViterbiDecoder sw(ex.wfst, dcfg);

    const auto scores =
        acoustic::AcousticLikelihoods::fromNested(ex.frames);
    const auto hw_result = acc.decode(scores);
    const auto sw_result = sw.decode(scores);

    EXPECT_EQ(hw_result.words, sw_result.words);
    EXPECT_FLOAT_EQ(hw_result.score, sw_result.score);
    EXPECT_EQ(hw_result.bestState, sw_result.bestState);
}

/** Parameterized equivalence sweep over WFST shapes and seeds. */
struct EquivalenceCase
{
    wfst::StateId states;
    std::uint32_t phonemes;
    double eps_fraction;
    bool forward_eps;
    std::uint64_t seed;
};

class AccelEquivalence
    : public ::testing::TestWithParam<EquivalenceCase>
{
};

TEST_P(AccelEquivalence, MatchesSoftwareAndSortedLayout)
{
    const EquivalenceCase &param = GetParam();

    wfst::GeneratorConfig gcfg;
    gcfg.numStates = param.states;
    gcfg.numPhonemes = param.phonemes;
    gcfg.epsilonFraction = param.eps_fraction;
    gcfg.forwardEpsilonOnly = param.forward_eps;
    gcfg.numWords = 50;
    gcfg.seed = param.seed;
    const wfst::Wfst net = wfst::generateWfst(gcfg);

    const auto scores =
        syntheticScores(param.phonemes, 20, param.seed * 7 + 1);

    decoder::DecoderConfig dcfg;
    dcfg.beam = 8.0f;
    decoder::ViterbiDecoder sw(net, dcfg);
    const auto sw_result = sw.decode(scores);

    accel::AcceleratorConfig acfg;
    acfg.beam = 8.0f;
    accel::Accelerator acc(net, acfg);
    const auto hw_result = acc.decode(scores);

    EXPECT_EQ(hw_result.words, sw_result.words);
    EXPECT_NEAR(hw_result.score, sw_result.score, 1e-3f);

    // The sorted layout (Sec. IV-B) is a pure relabeling: decoding
    // over it must give identical words and scores.
    const wfst::SortedWfst sorted = wfst::sortWfstByDegree(net, 16);
    accel::AcceleratorConfig scfg =
        accel::AcceleratorConfig::withStateOpt();
    scfg.beam = 8.0f;
    accel::Accelerator sorted_acc(sorted, scfg);
    const auto sorted_result = sorted_acc.decode(scores);

    EXPECT_EQ(sorted_result.words, sw_result.words);
    EXPECT_NEAR(sorted_result.score, sw_result.score, 1e-3f);
}

/**
 * gtest names each case after the printed bytes of its
 * EquivalenceCase, padding included.  A constant-initialized table
 * has zero padding, so the test names do not depend on stack garbage
 * at start-up.
 */
constexpr EquivalenceCase kEquivalenceCases[] = {
    {50, 8, 0.115, true, 1},     {50, 8, 0.115, true, 2},
    {200, 16, 0.115, true, 3},   {200, 16, 0.0, true, 4},
    {200, 16, 0.3, true, 5},     {500, 32, 0.115, false, 6},
    {500, 32, 0.115, true, 7},   {1000, 64, 0.2, false, 8},
    {1000, 64, 0.115, true, 9},  {100, 4, 0.115, true, 10},
};

INSTANTIATE_TEST_SUITE_P(Shapes, AccelEquivalence,
                         ::testing::ValuesIn(kEquivalenceCases));

TEST(AccelFunctional, MatchesBruteForceWithoutBeam)
{
    // With an effectively infinite beam the accelerator must agree
    // with exhaustive dynamic programming over all states.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        wfst::GeneratorConfig gcfg;
        gcfg.numStates = 40;
        gcfg.numPhonemes = 6;
        gcfg.numWords = 12;
        gcfg.seed = seed;
        const wfst::Wfst net = wfst::generateWfst(gcfg);
        const auto scores = syntheticScores(6, 12, seed + 100);

        accel::AcceleratorConfig acfg;
        acfg.beam = 1e9f;
        accel::Accelerator acc(net, acfg);
        const auto hw_result = acc.decode(scores, false);

        const auto ref =
            decoder::fullViterbiReference(net, scores);
        EXPECT_EQ(hw_result.words, ref.words) << "seed " << seed;
        EXPECT_NEAR(hw_result.score, ref.score, 1e-3f)
            << "seed " << seed;
    }
}

TEST(AccelFunctional, TimingKnobsNeverChangeResults)
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 400;
    gcfg.numPhonemes = 32;
    gcfg.seed = 99;
    const wfst::Wfst net = wfst::generateWfst(gcfg);
    const auto scores = syntheticScores(32, 15, 4242);

    accel::AcceleratorConfig base;
    base.beam = 8.0f;
    accel::Accelerator a0(net, base);
    const auto r0 = a0.decode(scores);

    // Prefetching.
    accel::AcceleratorConfig pf = base;
    pf.prefetchEnabled = true;
    accel::Accelerator a1(net, pf);
    const auto r1 = a1.decode(scores);
    EXPECT_EQ(r1.words, r0.words);
    EXPECT_FLOAT_EQ(r1.score, r0.score);

    // Tiny caches.
    accel::AcceleratorConfig small = base;
    small.stateCache.size = 8_KiB;
    small.arcCache.size = 16_KiB;
    small.tokenCache.size = 8_KiB;
    accel::Accelerator a2(net, small);
    const auto r2 = a2.decode(scores);
    EXPECT_EQ(r2.words, r0.words);
    EXPECT_FLOAT_EQ(r2.score, r0.score);

    // Perfect caches.
    accel::AcceleratorConfig perfect = base;
    perfect.makeCachesPerfect();
    accel::Accelerator a3(net, perfect);
    const auto r3 = a3.decode(scores);
    EXPECT_EQ(r3.words, r0.words);
    EXPECT_FLOAT_EQ(r3.score, r0.score);

    // Ideal hash changes cycle costs, not outcomes.
    accel::AcceleratorConfig ideal = base;
    ideal.idealHash = true;
    accel::Accelerator a4(net, ideal);
    const auto r4 = a4.decode(scores);
    EXPECT_EQ(r4.words, r0.words);
    EXPECT_FLOAT_EQ(r4.score, r0.score);

    // Small hash (more collisions / overflow).
    accel::AcceleratorConfig tiny_hash = base;
    tiny_hash.hashEntries = 64;
    tiny_hash.hashBackupEntries = 32;
    accel::Accelerator a5(net, tiny_hash);
    const auto r5 = a5.decode(scores);
    EXPECT_EQ(r5.words, r0.words);
    EXPECT_FLOAT_EQ(r5.score, r0.score);
}

TEST(AccelFunctional, MultipleUtterancesAccumulateStats)
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 100;
    gcfg.numPhonemes = 8;
    gcfg.seed = 5;
    const wfst::Wfst net = wfst::generateWfst(gcfg);

    accel::AcceleratorConfig cfg;
    cfg.beam = 8.0f;
    accel::Accelerator acc(net, cfg);

    acc.decode(syntheticScores(8, 10, 1));
    const auto frames_one = acc.stats().frames;
    acc.decode(syntheticScores(8, 10, 2));
    EXPECT_EQ(acc.stats().frames, 2 * frames_one);

    acc.clearStats();
    EXPECT_EQ(acc.stats().frames, 0u);
    EXPECT_EQ(acc.stats().cycles, 0u);
}

TEST(AccelStreaming, MatchesBatchDecode)
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 600;
    gcfg.numPhonemes = 32;
    gcfg.seed = 314;
    const wfst::Wfst net = wfst::generateWfst(gcfg);
    const auto scores = syntheticScores(32, 18, 2718);

    accel::AcceleratorConfig cfg;
    cfg.beam = 8.0f;

    accel::Accelerator batch(net, cfg);
    const auto batch_result = batch.decode(scores);

    accel::Accelerator stream(net, cfg);
    stream.streamBegin();
    for (std::size_t f = 0; f < scores.numFrames(); ++f)
        stream.streamFrame(scores.frame(f));
    const auto stream_result = stream.streamFinish();

    EXPECT_EQ(stream_result.words, batch_result.words);
    EXPECT_FLOAT_EQ(stream_result.score, batch_result.score);
    EXPECT_EQ(stream.stats().cycles, batch.stats().cycles);
    EXPECT_EQ(stream.stats().dram.totalBytes(),
              batch.stats().dram.totalBytes());
}

TEST(AccelStreaming, PartialHypothesesGrow)
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 400;
    gcfg.numPhonemes = 16;
    gcfg.numWords = 30;
    gcfg.wordLabelProb = 0.5;  // plenty of words to observe
    gcfg.seed = 9;
    const wfst::Wfst net = wfst::generateWfst(gcfg);
    const auto scores = syntheticScores(16, 20, 12);

    accel::AcceleratorConfig cfg;
    cfg.beam = 8.0f;
    accel::Accelerator acc(net, cfg);
    acc.streamBegin();
    std::size_t last_len = 0;
    for (std::size_t f = 0; f < scores.numFrames(); ++f) {
        acc.streamFrame(scores.frame(f), /*run_timing=*/false);
        const auto partial = acc.streamPartial();
        // Partial hypotheses exist mid-stream and are usable.
        if (f + 1 == scores.numFrames())
            last_len = partial.size();
    }
    const auto final_result = acc.streamFinish(false);
    // The final (closed) hypothesis extends or equals the last
    // partial one.
    EXPECT_GE(final_result.words.size(), last_len > 0 ? 1u : 0u);
}

TEST(AccelStreamingDeath, MisuseIsCaught)
{
    const wfst::Figure2Example ex = wfst::buildFigure2Example();
    accel::AcceleratorConfig cfg;
    cfg.beam = ex.beam;
    accel::Accelerator acc(ex.wfst, cfg);
    EXPECT_DEATH(acc.streamPartial(), "outside an utterance");
    acc.streamBegin();
    EXPECT_DEATH(acc.streamBegin(), "during an open utterance");
}
