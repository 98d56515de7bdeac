#include "frontend/vad.hh"

#include <algorithm>
#include <cmath>

namespace asr::vad {

float
frameEnergyDb(std::span<const float> frame)
{
    double acc = 0.0;
    for (const float s : frame)
        acc += double(s) * double(s);
    const double mean =
        frame.empty() ? 0.0 : acc / double(frame.size());
    // -100 dBFS floor keeps digital silence finite.
    return float(10.0 * std::log10(std::max(mean, 1e-10)));
}

float
frameZeroCrossRate(std::span<const float> frame)
{
    if (frame.size() < 2)
        return 0.0f;
    std::size_t crossings = 0;
    for (std::size_t i = 1; i < frame.size(); ++i)
        if ((frame[i - 1] >= 0.0f) != (frame[i] >= 0.0f))
            ++crossings;
    return float(crossings) / float(frame.size() - 1);
}

bool
Detector::classify(std::span<const float> frame)
{
    const float energy = frameEnergyDb(frame);
    const float zcr = frameZeroCrossRate(frame);

    if (!floorSeeded) {
        noiseFloorDb = energy;
        floorSeeded = true;
    } else if (energy < noiseFloorDb) {
        noiseFloorDb = energy;  // instant attack downward
    } else {
        noiseFloorDb += cfg.noiseRiseDbPerFrame;
    }

    const bool loud = energy > noiseFloorDb + cfg.energyThresholdDb;
    const bool fricative =
        zcr > cfg.zcrThreshold &&
        energy > noiseFloorDb + cfg.zcrEnergyMarginDb;
    const bool raw = energy > cfg.absoluteFloorDb && (loud || fricative);

    if (raw)
        hold = cfg.hangoverFrames + 1;
    else if (hold > 0)
        --hold;
    return hold > 0;
}

void
Detector::reset()
{
    floorSeeded = false;
    noiseFloorDb = 0.0f;
    hold = 0;
}

} // namespace asr::vad
