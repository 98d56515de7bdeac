/**
 * @file
 * Unit tests for the always-on front-end pieces in isolation:
 *
 *  - vad::Detector (energy + zero-crossing): tone vs silence
 *    classification, hangover smoothing, adaptive-floor behaviour.
 *  - frontend::Endpointer: sample-exact segment extraction (the
 *    Audio events concatenate to exactly [startSample, endSample) of
 *    the input), preroll/hangover inclusion, chunk-size invariance,
 *    flush semantics.
 *  - frontend::WakeWordGate: the template phrase opens the gate, a
 *    different phrase does not, rearm() closes it again.
 *
 * The corpus-level acceptance sweep (miss/false-trigger rates across
 * seeds and SNRs) and the engine integration live in
 * endpointing_corpus_test.cc.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "frontend/audio.hh"
#include "frontend/endpointer.hh"
#include "frontend/mfcc.hh"
#include "frontend/vad.hh"

using namespace asr;
using namespace asr::frontend;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

[[maybe_unused]] const auto *env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

constexpr std::size_t kFrame = 160;  //!< 10 ms at 16 kHz

/** @p n samples of a 440 Hz tone at amplitude @p amp. */
std::vector<float>
tone(std::size_t n, float amp = 0.5f, std::size_t phase0 = 0)
{
    std::vector<float> s(n);
    for (std::size_t i = 0; i < n; ++i)
        s[i] = amp * std::sin(2.0 * 3.14159265358979 * 440.0 *
                              double(i + phase0) / 16000.0);
    return s;
}

/** @p n samples of low-level uniform noise. */
std::vector<float>
noiseFloor(std::size_t n, std::uint64_t seed = 9, float amp = 1e-3f)
{
    Rng rng(seed);
    std::vector<float> s(n);
    for (float &x : s)
        x = float(rng.uniform(-amp, amp));
    return s;
}

} // namespace

// ---------------------------------------------------------------------------
// Frame helpers and the detector.
// ---------------------------------------------------------------------------

TEST(VadHelpers, FrameEnergyAndZeroCrossings)
{
    const std::vector<float> silence(kFrame, 0.0f);
    EXPECT_LE(vad::frameEnergyDb(silence), -99.0f);

    // Full-scale square wave alternating every sample: 0 dBFS mean
    // square and the maximal zero-crossing rate.
    std::vector<float> square(kFrame);
    for (std::size_t i = 0; i < kFrame; ++i)
        square[i] = (i % 2 == 0) ? 1.0f : -1.0f;
    EXPECT_NEAR(vad::frameEnergyDb(square), 0.0f, 1e-4f);
    EXPECT_NEAR(vad::frameZeroCrossRate(square), 1.0f, 1e-6f);

    const std::vector<float> dc(kFrame, 0.25f);
    EXPECT_NEAR(vad::frameZeroCrossRate(dc), 0.0f, 1e-6f);
}

TEST(EnergyDetector, SeparatesToneFromNoiseFloor)
{
    vad::Detector det{vad::VadConfig()};

    // Seed the adaptive floor with quiet frames first.
    const std::vector<float> quiet = noiseFloor(kFrame * 20);
    for (std::size_t f = 0; f < 20; ++f)
        EXPECT_FALSE(det.classify(
            std::span<const float>(quiet.data() + f * kFrame, kFrame)))
            << "noise-floor frame " << f << " classified as speech";

    const std::vector<float> loud = tone(kFrame);
    EXPECT_TRUE(det.classify(loud));
}

TEST(EnergyDetector, HangoverBridgesShortDips)
{
    vad::VadConfig cfg;
    cfg.hangoverFrames = 3;
    vad::Detector det(cfg);
    const std::vector<float> quiet = noiseFloor(kFrame * 8);
    for (std::size_t f = 0; f < 8; ++f)
        det.classify(
            std::span<const float>(quiet.data() + f * kFrame, kFrame));

    ASSERT_TRUE(det.classify(tone(kFrame)));
    // Silence now: the decision holds for exactly hangoverFrames.
    const std::vector<float> dip = noiseFloor(kFrame, 11);
    for (unsigned f = 0; f < cfg.hangoverFrames; ++f)
        EXPECT_TRUE(det.classify(dip)) << "hangover frame " << f;
    EXPECT_FALSE(det.classify(dip));

    det.reset();
    // After reset the first frame seeds the floor: a lone tone frame
    // cannot clear a floor seeded by itself.
    EXPECT_FALSE(det.classify(tone(kFrame)));
}

// ---------------------------------------------------------------------------
// Endpointer.
// ---------------------------------------------------------------------------

namespace {

/** Silence, then a tone burst, then silence -- one clean utterance. */
std::vector<float>
burstSignal(unsigned lead_frames, unsigned burst_frames,
            unsigned tail_frames)
{
    std::vector<float> s;
    const auto quiet =
        noiseFloor(kFrame * (lead_frames + tail_frames), 21);
    s.insert(s.end(), quiet.begin(),
             quiet.begin() + std::ptrdiff_t(lead_frames * kFrame));
    const auto burst = tone(burst_frames * kFrame);
    s.insert(s.end(), burst.begin(), burst.end());
    s.insert(s.end(),
             quiet.begin() + std::ptrdiff_t(lead_frames * kFrame),
             quiet.end());
    return s;
}

/** Drain @p ep completely, appending every event to @p events. */
void
drainInto(Endpointer &ep, std::vector<EndpointEvent> &events)
{
    while (ep.eventReady())
        events.push_back(ep.pop());
}

} // namespace

TEST(Endpointer, SegmentAudioIsSampleExact)
{
    const unsigned lead = 40, burst = 50, tail = 60;
    const std::vector<float> signal = burstSignal(lead, burst, tail);

    EndpointerConfig cfg;
    Endpointer ep(cfg);
    std::vector<EndpointEvent> events;
    for (std::size_t base = 0; base < signal.size(); base += 160) {
        ep.push(std::span<const float>(signal.data() + base, 160));
        drainInto(ep, events);
    }
    ep.flush();
    drainInto(ep, events);

    // Exactly one segment: Start, N Audio frames, End.
    ASSERT_GE(events.size(), 3u);
    EXPECT_EQ(events.front().kind, EndpointEvent::Kind::SegmentStart);
    EXPECT_EQ(events.back().kind, EndpointEvent::Kind::SegmentEnd);
    const EndpointEvent &end = events.back();
    EXPECT_EQ(ep.segmentsClosed(), 1u);

    // The segment includes preroll before the onset and the trailing
    // hangover: its span strictly contains the burst.
    const std::uint64_t burst_start = std::uint64_t(lead) * kFrame;
    const std::uint64_t burst_end =
        std::uint64_t(lead + burst) * kFrame;
    EXPECT_LE(end.startSample, burst_start);
    EXPECT_GE(end.endSample, burst_end);
    EXPECT_GE(end.startSample,
              burst_start -
                  (cfg.prerollFrames + cfg.onsetFrames) * kFrame);

    // Sample-exactness: the Audio payloads concatenate to exactly
    // signal[startSample, endSample).
    std::vector<float> forwarded;
    std::uint64_t expect_at = end.startSample;
    for (const EndpointEvent &ev : events) {
        if (ev.kind != EndpointEvent::Kind::Audio)
            continue;
        EXPECT_EQ(ev.firstSample, expect_at);
        expect_at += ev.audio.size();
        forwarded.insert(forwarded.end(), ev.audio.begin(),
                         ev.audio.end());
    }
    ASSERT_EQ(forwarded.size(), end.endSample - end.startSample);
    for (std::size_t i = 0; i < forwarded.size(); ++i)
        ASSERT_EQ(forwarded[i],
                  signal[std::size_t(end.startSample) + i])
            << "forwarded sample " << i << " differs";
}

TEST(Endpointer, EventsAreChunkSizeInvariant)
{
    const std::vector<float> signal = burstSignal(30, 40, 50);
    const auto run = [&](std::size_t chunk) {
        EndpointerConfig cfg;
        Endpointer ep(cfg);
        std::vector<EndpointEvent> events;
        for (std::size_t base = 0; base < signal.size();
             base += chunk) {
            const std::size_t len =
                std::min(chunk, signal.size() - base);
            ep.push(std::span<const float>(signal.data() + base, len));
            drainInto(ep, events);
        }
        ep.flush();
        drainInto(ep, events);
        return events;
    };

    const std::vector<EndpointEvent> ref = run(signal.size());
    for (const std::size_t chunk : {std::size_t(1), std::size_t(7),
                                    std::size_t(160),
                                    std::size_t(4096)}) {
        const std::vector<EndpointEvent> got = run(chunk);
        ASSERT_EQ(got.size(), ref.size()) << "chunk " << chunk;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(got[i].kind, ref[i].kind);
            EXPECT_EQ(got[i].startSample, ref[i].startSample);
            EXPECT_EQ(got[i].endSample, ref[i].endSample);
            EXPECT_EQ(got[i].firstSample, ref[i].firstSample);
            EXPECT_EQ(got[i].audio, ref[i].audio);
        }
    }
}

TEST(Endpointer, FlushClosesOpenSegmentAndMaxFramesForcesClose)
{
    // A quiet lead-in seeds the adaptive noise floor (a tone from
    // sample 0 would seed the floor with itself and never read as
    // speech), then a tone that never goes silent: only flush() --
    // or the maxSegmentFrames cap -- can close the segment.
    std::vector<float> endless = noiseFloor(kFrame * 10, 41);
    const std::vector<float> burst = tone(kFrame * 50);
    endless.insert(endless.end(), burst.begin(), burst.end());
    {
        EndpointerConfig cfg;
        Endpointer ep(cfg);
        ep.push(endless);
        EXPECT_TRUE(ep.inSpeech());
        EXPECT_EQ(ep.segmentsClosed(), 0u);
        ep.flush();
        EXPECT_EQ(ep.segmentsClosed(), 1u);
        EXPECT_FALSE(ep.inSpeech());
    }
    {
        EndpointerConfig cfg;
        cfg.maxSegmentFrames = 20;
        Endpointer ep(cfg);
        ep.push(endless);
        // 50 speech frames with a 20-frame cap: at least two forced
        // closes happened before flush.
        EXPECT_GE(ep.segmentsClosed(), 2u);
    }
}

TEST(Endpointer, NoSpeechYieldsNoEvents)
{
    EndpointerConfig cfg;
    Endpointer ep(cfg);
    ep.push(noiseFloor(kFrame * 100, 33));
    ep.flush();
    EXPECT_FALSE(ep.eventReady());
    EXPECT_EQ(ep.segmentsClosed(), 0u);
}

// ---------------------------------------------------------------------------
// Wake-word gate.
// ---------------------------------------------------------------------------

TEST(WakeWordGate, OpensOnTemplateRejectsOtherPhrase)
{
    const Mfcc mfcc;
    const Synthesizer synth(8, 16000, 77);
    const AudioSignal wake = synth.synthesize({1, 3, 5}, 8);
    const AudioSignal other = synth.synthesize({2, 6, 4}, 8);

    WakeWordGate gate(mfcc, wake.samples, 0.8f);
    EXPECT_FALSE(gate.isOpen());
    EXPECT_GT(gate.templateFrames(), 0u);

    // A different phrase of the same length must not trigger.
    EXPECT_EQ(gate.push(other.samples), other.samples.size());
    EXPECT_FALSE(gate.isOpen()) << "best " << gate.bestScore();

    // The wake phrase itself triggers; the returned live index never
    // exceeds the chunk and the gate forwards everything afterwards.
    const std::size_t live = gate.push(wake.samples);
    EXPECT_TRUE(gate.isOpen()) << "best " << gate.bestScore();
    EXPECT_LE(live, wake.samples.size());
    EXPECT_EQ(gate.push(other.samples), 0u);

    gate.rearm();
    EXPECT_FALSE(gate.isOpen());
    EXPECT_EQ(gate.push(other.samples), other.samples.size());
}
