/**
 * @file
 * Voice-activity detection: the first stage of the always-on audio
 * pipeline (VAD -> wake-word gate -> endpointer -> engine stream).
 *
 * A vad::Detector classifies one 10 ms frame of raw samples at a time
 * as speech or non-speech: frame log-energy against an adaptive
 * noise floor, plus a zero-crossing-rate path that catches unvoiced
 * (fricative-like) frames whose energy barely clears the floor,
 * smoothed by a hangover counter that holds the speech decision
 * through short intra-word dips.  It is the one detector; the
 * frontend::Endpointer owns one per stream.
 *
 * Determinism contract: classify() is a pure function of the sample
 * stream fed so far (no wall-clock, no global RNG), so identical
 * audio always yields identical frame decisions -- the property the
 * endpointing corpus suite sweeps and the engine's segmentation
 * bit-identity rests on.
 *
 * Thread safety: a Detector instance is per-stream mutable state;
 * each stream owns one privately.
 */

#ifndef ASR_FRONTEND_VAD_HH
#define ASR_FRONTEND_VAD_HH

#include <span>

namespace asr::vad {

/** Detector knobs. */
struct VadConfig
{
    /** Speech needs this much energy (dB) above the noise floor. */
    float energyThresholdDb = 9.0f;

    /**
     * Absolute silence floor in dBFS: frames below it are never
     * speech, however low the adaptive floor has drifted.
     */
    float absoluteFloorDb = -65.0f;

    /**
     * Zero-crossing-rate path for unvoiced speech: a frame whose ZCR
     * exceeds zcrThreshold counts as speech with only
     * zcrEnergyMarginDb of energy headroom over the floor.
     */
    float zcrThreshold = 0.35f;
    float zcrEnergyMarginDb = 4.5f;

    /**
     * Hold the speech decision this many frames past the last raw
     * speech frame, bridging intra-word energy dips (plosive
     * closures, phone-boundary envelopes) the endpointer must not
     * mistake for trailing silence.
     */
    unsigned hangoverFrames = 5;

    /**
     * Adaptive noise floor: it snaps down to any quieter frame
     * instantly and leaks upward this many dB per frame, so a slowly
     * rising noise bed is absorbed without ever chasing speech.
     */
    float noiseRiseDbPerFrame = 0.2f;
};

/**
 * The energy + zero-crossing detector.  Raw per-frame rule:
 *
 *   speech :=  energy > floor + energyThresholdDb
 *           || (zcr > zcrThreshold
 *               && energy > floor + zcrEnergyMarginDb)
 *
 * gated by the absolute floor, where `floor` is an adaptive noise
 * estimate (instant attack downward, slow dB/frame release upward).
 * The published decision holds for hangoverFrames past the last raw
 * hit.
 */
class Detector
{
  public:
    explicit Detector(const VadConfig &config) : cfg(config) {}

    /**
     * Classify the next 10 ms frame (any frame length >= 1; the
     * caller fixes it per stream).  Stateful: the decision may
     * depend on every frame fed since the last reset().
     * @return true when the frame is speech
     */
    bool classify(std::span<const float> frame);

    /** Forget all adaptation; the next frame starts a new stream. */
    void reset();

  private:
    VadConfig cfg;
    bool floorSeeded = false;
    float noiseFloorDb = 0.0f;
    unsigned hold = 0;  //!< frames of speech decision remaining
};

/** Frame log-energy in dBFS (mean square over the frame, floored). */
float frameEnergyDb(std::span<const float> frame);

/** Fraction of sample-to-sample sign changes in the frame. */
float frameZeroCrossRate(std::span<const float> frame);

} // namespace asr::vad

#endif // ASR_FRONTEND_VAD_HH
