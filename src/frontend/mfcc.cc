#include "frontend/mfcc.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace asr::frontend {

double
Mfcc::hzToMel(double hz)
{
    return 2595.0 * std::log10(1.0 + hz / 700.0);
}

double
Mfcc::melToHz(double mel)
{
    return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
}

Mfcc::Mfcc(const MfccConfig &config)
    : cfg(config), spectrum(config.fftSize)
{
    ASR_ASSERT(cfg.sampleRate > 0, "sample rate must be positive");
    ASR_ASSERT(cfg.numCeps <= cfg.numFilters,
               "cannot keep more cepstra than filters");

    frameLen = std::size_t(cfg.frameLengthMs * cfg.sampleRate / 1000.0);
    frameShift = std::size_t(cfg.frameShiftMs * cfg.sampleRate / 1000.0);
    ASR_ASSERT(frameLen > 0 && frameShift > 0, "degenerate framing");
    ASR_ASSERT(frameLen <= cfg.fftSize,
               "FFT size smaller than the analysis window");

    // Hamming window.
    window.resize(frameLen);
    for (std::size_t i = 0; i < frameLen; ++i)
        window[i] = 0.54 - 0.46 * std::cos(2.0 * M_PI * double(i) /
                                           double(frameLen - 1));

    // Triangular mel filterbank.
    const double high =
        std::min(cfg.highFreqHz, double(cfg.sampleRate) / 2.0);
    const double mel_lo = hzToMel(cfg.lowFreqHz);
    const double mel_hi = hzToMel(high);
    std::vector<double> centers(cfg.numFilters + 2);
    for (unsigned m = 0; m < cfg.numFilters + 2; ++m)
        centers[m] = melToHz(mel_lo + (mel_hi - mel_lo) * double(m) /
                             double(cfg.numFilters + 1));

    const std::size_t num_bins = cfg.fftSize / 2 + 1;
    const double bin_hz = double(cfg.sampleRate) / double(cfg.fftSize);
    filters.resize(cfg.numFilters);
    for (unsigned m = 0; m < cfg.numFilters; ++m) {
        const double left = centers[m];
        const double center = centers[m + 1];
        const double right = centers[m + 2];
        for (std::size_t b = 0; b < num_bins; ++b) {
            const double f = double(b) * bin_hz;
            double w = 0.0;
            if (f > left && f < center)
                w = (f - left) / (center - left);
            else if (f >= center && f < right)
                w = (right - f) / (right - center);
            if (w > 0.0)
                filters[m].emplace_back(b, w);
        }
    }

    // Orthonormal DCT-II.
    dct.assign(cfg.numCeps, std::vector<double>(cfg.numFilters));
    const double norm0 = std::sqrt(1.0 / cfg.numFilters);
    const double norm = std::sqrt(2.0 / cfg.numFilters);
    for (unsigned c = 0; c < cfg.numCeps; ++c)
        for (unsigned m = 0; m < cfg.numFilters; ++m)
            dct[c][m] = (c == 0 ? norm0 : norm) *
                        std::cos(M_PI * double(c) * (double(m) + 0.5) /
                                 double(cfg.numFilters));
}

std::size_t
Mfcc::numFrames(std::size_t num_samples) const
{
    if (num_samples < frameLen)
        return 0;
    return (num_samples - frameLen) / frameShift + 1;
}

FeatureMatrix
Mfcc::compute(const AudioSignal &audio) const
{
    ASR_ASSERT(audio.sampleRate == cfg.sampleRate,
               "audio sample rate %u does not match config %u",
               audio.sampleRate, cfg.sampleRate);

    const std::size_t frames = numFrames(audio.samples.size());
    FeatureMatrix out;
    out.reserve(frames);

    for (std::size_t f = 0; f < frames; ++f) {
        const std::size_t base = f * frameShift;
        const float prev =
            base > 0 ? audio.samples[base - 1] : audio.samples[0];
        out.push_back(computeFrame(
            std::span<const float>(audio.samples.data() + base,
                                   frameLen),
            prev));
    }
    return out;
}

std::vector<float>
Mfcc::computeFrame(std::span<const float> samples, float prev) const
{
    ASR_ASSERT(samples.size() == frameLen,
               "frame needs exactly %zu samples, got %zu", frameLen,
               samples.size());

    // Pre-emphasis + windowing.  The scratch buffers are
    // thread-local, so concurrent sessions sharing one const Mfcc stay
    // race-free while a frame allocates only the row it returns.
    static thread_local std::vector<double> buf, power, mel;
    buf.resize(frameLen);
    for (std::size_t i = 0; i < frameLen; ++i) {
        const double cur = samples[i];
        const double p = i > 0 ? samples[i - 1] : prev;
        buf[i] = (cur - cfg.preEmphasis * p) * window[i];
    }

    power.resize(spectrum.numBins());
    spectrum.compute(buf, power);

    // Mel energies (log, floored to avoid -inf on silence).
    mel.resize(cfg.numFilters);
    for (unsigned m = 0; m < cfg.numFilters; ++m) {
        double e = 0.0;
        for (const auto &[bin, w] : filters[m])
            e += power[bin] * w;
        mel[m] = std::log(std::max(e, 1e-10));
    }

    // DCT-II to cepstra.
    std::vector<float> ceps(cfg.numCeps);
    for (unsigned c = 0; c < cfg.numCeps; ++c) {
        double acc = 0.0;
        for (unsigned m = 0; m < cfg.numFilters; ++m)
            acc += dct[c][m] * mel[m];
        ceps[c] = float(acc);
    }
    return ceps;
}

StreamingMfcc::StreamingMfcc(const Mfcc &mfcc)
    : mfcc(mfcc)
{
}

void
StreamingMfcc::push(std::span<const float> samples)
{
    // Compact the consumed prefix before growing: one O(live) move
    // per push keeps the total work linear however the chunk sizes
    // and pops interleave.
    if (bufStart > 0) {
        buf.erase(buf.begin(), buf.begin() + std::ptrdiff_t(bufStart));
        bufStart = 0;
    }
    buf.insert(buf.end(), samples.begin(), samples.end());
    pushed += samples.size();
}

bool
StreamingMfcc::frameReady() const
{
    // After the first frame the buffer keeps one lead sample (the
    // one preceding the window) for pre-emphasis continuity.
    const std::size_t needed =
        mfcc.frameLength() + (atSignalStart ? 0 : 1);
    return buf.size() - bufStart >= needed;
}

std::vector<float>
StreamingMfcc::pop()
{
    ASR_ASSERT(frameReady(), "no completed frame to pop");
    const float *base = buf.data() + bufStart;
    const std::size_t window_at = atSignalStart ? 0 : 1;
    const float prev = base[0];  // == window start at signal start
    std::vector<float> frame = mfcc.computeFrame(
        std::span<const float>(base + window_at, mfcc.frameLength()),
        prev);

    // Advance one hop; keep the sample preceding the next window.
    bufStart += mfcc.frameHop() - (atSignalStart ? 1 : 0);
    atSignalStart = false;
    ++emitted;
    return frame;
}

void
StreamingMfcc::reset()
{
    buf.clear();
    bufStart = 0;
    atSignalStart = true;
    emitted = 0;
    pushed = 0;
}

FeatureMatrix
spliceContext(const FeatureMatrix &features, unsigned context)
{
    FeatureMatrix out;
    if (features.empty())
        return out;
    const std::size_t dim = features[0].size();
    const std::size_t frames = features.size();
    out.assign(frames,
               std::vector<float>((2 * context + 1) * dim, 0.0f));
    for (std::size_t f = 0; f < frames; ++f)
        spliceWindowInto(
            f, frames, context, dim,
            [&features](std::size_t i) -> const std::vector<float> & {
                return features[i];
            },
            out[f]);
    return out;
}

} // namespace asr::frontend
