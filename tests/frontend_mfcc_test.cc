/**
 * @file
 * Tests for the MFCC front-end and the phoneme synthesizer.
 */

#include <algorithm>
#include <cmath>
#include <span>

#include <gtest/gtest.h>

#include "frontend/audio.hh"
#include "frontend/mfcc.hh"

using namespace asr;
using namespace asr::frontend;

TEST(MelScale, RoundTripAndAnchors)
{
    EXPECT_NEAR(Mfcc::hzToMel(0.0), 0.0, 1e-9);
    // 1000 Hz is ~1000 mel by construction of the scale.
    EXPECT_NEAR(Mfcc::hzToMel(1000.0), 999.9, 0.5);
    for (double hz : {100.0, 440.0, 1000.0, 4000.0, 7999.0})
        EXPECT_NEAR(Mfcc::melToHz(Mfcc::hzToMel(hz)), hz, 1e-6);
    // Monotonic.
    EXPECT_LT(Mfcc::hzToMel(100.0), Mfcc::hzToMel(200.0));
}

TEST(Mfcc, FrameCountMatchesConfig)
{
    Mfcc mfcc;
    // 1 s at 16 kHz, 25 ms window / 10 ms hop -> 98 frames.
    EXPECT_EQ(mfcc.numFrames(16000), 98u);
    EXPECT_EQ(mfcc.numFrames(399), 0u);   // shorter than one window
    EXPECT_EQ(mfcc.numFrames(400), 1u);
}

TEST(Mfcc, OutputShape)
{
    Synthesizer synth(8);
    const AudioSignal audio = synth.synthesize({1, 2, 3}, 5);
    Mfcc mfcc;
    const FeatureMatrix feats = mfcc.compute(audio);
    EXPECT_EQ(feats.size(), mfcc.numFrames(audio.samples.size()));
    for (const auto &row : feats)
        ASSERT_EQ(row.size(), 13u);
}

TEST(Mfcc, SilenceYieldsFiniteFeatures)
{
    AudioSignal audio;
    audio.samples.assign(16000, 0.0f);
    Mfcc mfcc;
    const FeatureMatrix feats = mfcc.compute(audio);
    for (const auto &row : feats)
        for (float v : row)
            ASSERT_TRUE(std::isfinite(v));
}

TEST(Mfcc, DistinctPhonemesProduceDistinctFeatures)
{
    // The whole premise of the acoustic model: different synthetic
    // voices must be separable in MFCC space.
    Synthesizer synth(8);
    Mfcc mfcc;
    const auto f1 = mfcc.compute(synth.synthesize({1, 1, 1}, 6));
    const auto f2 = mfcc.compute(synth.synthesize({2, 2, 2}, 6));
    ASSERT_FALSE(f1.empty());
    ASSERT_EQ(f1.size(), f2.size());

    double dist = 0.0;
    const auto &a = f1[f1.size() / 2];
    const auto &b = f2[f2.size() / 2];
    for (std::size_t d = 0; d < a.size(); ++d)
        dist += double(a[d] - b[d]) * double(a[d] - b[d]);
    EXPECT_GT(std::sqrt(dist), 1.0);
}

TEST(Mfcc, SamePhonemeStableAcrossFrames)
{
    Synthesizer synth(8);
    Mfcc mfcc;
    const auto f = mfcc.compute(synth.synthesize({3, 3, 3, 3}, 6));
    ASSERT_GT(f.size(), 10u);
    // Two interior frames of the same phoneme stay within a sane
    // bound (the amplitude envelope moves C0 around, so this is an
    // order-of-magnitude sanity check, not a tight one).
    const auto &a = f[f.size() / 2];
    const auto &b = f[f.size() / 2 + 1];
    double dist = 0.0;
    for (std::size_t d = 0; d < a.size(); ++d)
        dist += double(a[d] - b[d]) * double(a[d] - b[d]);
    EXPECT_LT(std::sqrt(dist), 12.0);
}

TEST(Synthesizer, DeterministicOutput)
{
    Synthesizer a(8, 16000, 5), b(8, 16000, 5);
    const auto sa = a.synthesize({1, 2}, 3);
    const auto sb = b.synthesize({1, 2}, 3);
    ASSERT_EQ(sa.samples.size(), sb.samples.size());
    for (std::size_t i = 0; i < sa.samples.size(); ++i)
        ASSERT_EQ(sa.samples[i], sb.samples[i]);
}

TEST(Synthesizer, DurationMatchesFrames)
{
    Synthesizer synth(4);
    const auto audio = synth.synthesize({1, 2, 3}, 6);
    // 3 phones x 6 frames x 10 ms = 180 ms.
    EXPECT_NEAR(audio.durationSeconds(), 0.18, 1e-9);
}

TEST(Synthesizer, SamplesBounded)
{
    Synthesizer synth(16);
    const auto audio = synth.synthesize({5, 9, 2, 14}, 8);
    for (float s : audio.samples)
        ASSERT_LE(std::abs(s), 1.0f);
}

TEST(SpliceContext, ShapeAndEdgeReplication)
{
    FeatureMatrix f = {{1.0f, 10.0f}, {2.0f, 20.0f}, {3.0f, 30.0f}};
    const FeatureMatrix s = spliceContext(f, 1);
    ASSERT_EQ(s.size(), 3u);
    ASSERT_EQ(s[0].size(), 6u);
    // First frame: left context replicates frame 0.
    EXPECT_FLOAT_EQ(s[0][0], 1.0f);
    EXPECT_FLOAT_EQ(s[0][2], 1.0f);
    EXPECT_FLOAT_EQ(s[0][4], 2.0f);
    // Middle frame sees -1, 0, +1.
    EXPECT_FLOAT_EQ(s[1][0], 1.0f);
    EXPECT_FLOAT_EQ(s[1][2], 2.0f);
    EXPECT_FLOAT_EQ(s[1][4], 3.0f);
    // Last frame: right context replicates frame 2.
    EXPECT_FLOAT_EQ(s[2][4], 3.0f);
}

TEST(StreamingMfcc, BitIdenticalToBatchAcrossChunkSizes)
{
    Synthesizer synth(8);
    const AudioSignal audio = synth.synthesize({1, 2, 3, 4}, 5);
    Mfcc mfcc;
    const FeatureMatrix batch = mfcc.compute(audio);
    ASSERT_GT(batch.size(), 0u);

    for (const std::size_t chunk :
         {std::size_t(1), std::size_t(7), std::size_t(160),
          std::size_t(401), audio.samples.size()}) {
        StreamingMfcc stream(mfcc);
        FeatureMatrix out;
        for (std::size_t base = 0; base < audio.samples.size();
             base += chunk) {
            const std::size_t len = std::min(
                chunk, audio.samples.size() - base);
            stream.push(std::span<const float>(
                audio.samples.data() + base, len));
            while (stream.frameReady())
                out.push_back(stream.pop());
        }
        ASSERT_EQ(out.size(), batch.size()) << "chunk " << chunk;
        for (std::size_t f = 0; f < out.size(); ++f)
            EXPECT_EQ(out[f], batch[f])
                << "chunk " << chunk << " frame " << f;
        EXPECT_EQ(stream.framesEmitted(), batch.size());
        EXPECT_EQ(stream.samplesPushed(), audio.samples.size());
    }
}

TEST(StreamingMfcc, OneSampleChunksWithDeferredPops)
{
    // Regression guard for the carry-over/compaction path: 1-sample
    // pushes interact with the consumed-prefix compaction in push()
    // differently depending on when pop() runs.  The test above pops
    // eagerly after every push; here frames are left to accumulate
    // and drained at irregular intervals (including a full deferral
    // to the very end), which keeps a long consumed prefix and a
    // non-empty ready backlog across thousands of 1-sample pushes.
    // Output must stay bit-identical to the whole-utterance compute.
    Synthesizer synth(8);
    const AudioSignal audio = synth.synthesize({3, 1, 4, 2}, 5);
    Mfcc mfcc;
    const FeatureMatrix batch = mfcc.compute(audio);
    ASSERT_GT(batch.size(), 0u);

    // Drain cadences, in pushed samples: never until the end, a
    // prime stride (lands mid-frame and mid-hop), and one larger
    // than several hops (a multi-frame backlog each drain).
    for (const std::size_t cadence :
         {audio.samples.size(), std::size_t(373), std::size_t(1201)}) {
        StreamingMfcc stream(mfcc);
        FeatureMatrix out;
        for (std::size_t i = 0; i < audio.samples.size(); ++i) {
            stream.push(
                std::span<const float>(audio.samples.data() + i, 1));
            if ((i + 1) % cadence == 0)
                while (stream.frameReady())
                    out.push_back(stream.pop());
        }
        while (stream.frameReady())
            out.push_back(stream.pop());
        ASSERT_EQ(out.size(), batch.size()) << "cadence " << cadence;
        for (std::size_t f = 0; f < out.size(); ++f)
            ASSERT_EQ(out[f], batch[f])
                << "cadence " << cadence << " frame " << f;
        EXPECT_EQ(stream.samplesPushed(), audio.samples.size());
    }
}

TEST(StreamingMfcc, ShortSignalYieldsNoFrames)
{
    Mfcc mfcc;
    StreamingMfcc stream(mfcc);
    const std::vector<float> samples(mfcc.frameLength() - 1, 0.5f);
    stream.push(samples);
    EXPECT_FALSE(stream.frameReady());
    EXPECT_EQ(stream.framesEmitted(), 0u);
}

TEST(StreamingMfcc, ResetRestartsAtSignalStart)
{
    Synthesizer synth(4);
    const AudioSignal audio = synth.synthesize({1, 2}, 4);
    Mfcc mfcc;
    const FeatureMatrix batch = mfcc.compute(audio);

    StreamingMfcc stream(mfcc);
    stream.push(audio.samples);
    while (stream.frameReady())
        (void)stream.pop();
    stream.reset();
    EXPECT_EQ(stream.samplesPushed(), 0u);

    // After reset the stream reproduces the batch result again,
    // including the special pre-emphasis at the very first sample.
    stream.push(audio.samples);
    FeatureMatrix out;
    while (stream.frameReady())
        out.push_back(stream.pop());
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t f = 0; f < out.size(); ++f)
        EXPECT_EQ(out[f], batch[f]) << "frame " << f;
}

TEST(Mfcc, ComputeFrameMatchesBatchRows)
{
    Synthesizer synth(4);
    const AudioSignal audio = synth.synthesize({2, 3}, 6);
    Mfcc mfcc;
    const FeatureMatrix batch = mfcc.compute(audio);
    for (std::size_t f = 0; f < batch.size(); ++f) {
        const std::size_t base = f * mfcc.frameHop();
        const float prev =
            base > 0 ? audio.samples[base - 1] : audio.samples[0];
        const auto row = mfcc.computeFrame(
            std::span<const float>(audio.samples.data() + base,
                                   mfcc.frameLength()),
            prev);
        EXPECT_EQ(row, batch[f]) << "frame " << f;
    }
}


TEST(MfccDeath, NonPowerOfTwoFftSizeFailsAtConstruction)
{
    MfccConfig cfg;
    cfg.fftSize = 500;
    EXPECT_DEATH(Mfcc{cfg}, "power of two");
}
