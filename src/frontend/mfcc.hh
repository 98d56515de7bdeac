/**
 * @file
 * Mel-Frequency Cepstral Coefficient (MFCC) front-end (Sec. II of the
 * paper: "the audio samples within a frame are converted into a
 * vector of features").  Classic pipeline: pre-emphasis, 25 ms
 * Hamming-windowed frames every 10 ms, power spectrum, triangular mel
 * filterbank, log, DCT-II.  The power spectrum comes from a
 * PowerSpectrum plan built with the Mfcc (fft.hh), so a frame
 * allocates only its returned row.
 */

#ifndef ASR_FRONTEND_MFCC_HH
#define ASR_FRONTEND_MFCC_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "frontend/audio.hh"
#include "frontend/fft.hh"

namespace asr::frontend {

/** A feature matrix: frames x coefficients. */
using FeatureMatrix = std::vector<std::vector<float>>;

/** MFCC extraction parameters. */
struct MfccConfig
{
    std::uint32_t sampleRate = 16000;
    double frameLengthMs = 25.0;   //!< analysis window
    double frameShiftMs = 10.0;    //!< hop (the paper's 10 ms frames)
    std::size_t fftSize = 512;
    unsigned numFilters = 26;      //!< mel filterbank size
    unsigned numCeps = 13;         //!< cepstral coefficients kept
    double preEmphasis = 0.97;
    double lowFreqHz = 20.0;
    double highFreqHz = 8000.0;    //!< clamped to Nyquist
};

/**
 * MFCC extractor; construction precomputes the window, the FFT plan
 * and the filterbank, and checks that fftSize is a power of two.
 */
class Mfcc
{
  public:
    explicit Mfcc(const MfccConfig &config = MfccConfig());

    /** Extract features; one row per 10 ms frame. */
    FeatureMatrix compute(const AudioSignal &audio) const;

    /**
     * Compute one frame's cepstra from exactly frameLength() samples.
     * @param samples the analysis window
     * @param prev    the sample immediately before the window (for
     *                pre-emphasis); pass samples[0] at signal start
     */
    std::vector<float> computeFrame(std::span<const float> samples,
                                    float prev) const;

    /** Number of frames compute() yields for @p num_samples input. */
    std::size_t numFrames(std::size_t num_samples) const;

    /** Samples per analysis window (25 ms). */
    std::size_t frameLength() const { return frameLen; }

    /** Samples per hop (10 ms). */
    std::size_t frameHop() const { return frameShift; }

    const MfccConfig &config() const { return cfg; }

    /** Mel scale helpers (exposed for tests). */
    static double hzToMel(double hz);
    static double melToHz(double mel);

  private:
    MfccConfig cfg;
    std::size_t frameLen;   //!< samples per analysis window
    std::size_t frameShift; //!< samples per hop
    std::vector<double> window;  //!< Hamming coefficients
    /** filterbank[m] = list of (bin, weight) pairs. */
    std::vector<std::vector<std::pair<std::size_t, double>>> filters;
    /** DCT-II matrix, numCeps x numFilters, orthonormal. */
    std::vector<std::vector<double>> dct;
    PowerSpectrum spectrum;  //!< the fftSize-point plan
};

/**
 * Incremental MFCC extraction for streaming sessions.
 *
 * Accepts audio in arbitrarily sized chunks and emits feature frames
 * as soon as their 25 ms analysis window is complete.  The emitted
 * frames are bit-identical to Mfcc::compute over the concatenated
 * signal: the wrapper keeps exactly the samples the next window (plus
 * one pre-emphasis sample) still needs and delegates the per-frame
 * math to Mfcc::computeFrame.
 *
 * Holds a reference to the (immutable, shareable) Mfcc; each stream
 * owns its own StreamingMfcc.
 */
class StreamingMfcc
{
  public:
    explicit StreamingMfcc(const Mfcc &mfcc);

    /** Append an audio chunk; may complete zero or more frames. */
    void push(std::span<const float> samples);

    /** @return true when at least one frame can be popped. */
    bool frameReady() const;

    /** Pop the next completed feature frame (frameReady required). */
    std::vector<float> pop();

    /** Frames popped so far. */
    std::uint64_t framesEmitted() const { return emitted; }

    /** Total samples pushed so far. */
    std::uint64_t samplesPushed() const { return pushed; }

    /** Forget all buffered audio and restart at sample zero. */
    void reset();

  private:
    const Mfcc &mfcc;

    /**
     * Pending samples: the next window plus one lead sample live at
     * buf[bufStart..].  pop() advances bufStart instead of erasing
     * (a per-frame front erase would make large pushes quadratic);
     * push() compacts the consumed prefix away, so total moves stay
     * linear in the samples pushed.
     */
    std::vector<float> buf;
    std::size_t bufStart = 0;
    bool atSignalStart = true;   //!< next window is the very first
    std::uint64_t emitted = 0;
    std::uint64_t pushed = 0;
};

/**
 * Splice the +-@p context window around frame @p f into @p out
 * ((2*context+1)*dim values).  @p row_at(i) must yield a random-
 * access range of @p dim values for absolute frame i in [0, total);
 * frames beyond the edges replicate the first/last frame.
 *
 * This is THE context-splice definition: batch scoring
 * (spliceContext / acoustic::DnnScorer) and streaming sessions
 * (server::StreamingSession) all splice through it, so the
 * edge-replication semantics -- and with them the batch/streaming
 * bit-identity contract -- live in exactly one place.
 */
template <typename RowAt>
inline void
spliceWindowInto(std::size_t f, std::size_t total, unsigned context,
                 std::size_t dim, RowAt &&row_at, std::span<float> out)
{
    std::size_t pos = 0;
    for (long off = -long(context); off <= long(context); ++off) {
        const std::size_t src = std::size_t(std::clamp<long>(
            long(f) + off, 0, long(total) - 1));
        const auto &row = row_at(src);
        for (std::size_t d = 0; d < dim; ++d)
            out[pos++] = row[d];
    }
}

/**
 * Splice @p features with +-@p context frames of context (edge
 * frames replicate), producing rows of (2*context+1)*dim values --
 * the standard DNN acoustic-model input layout.
 */
FeatureMatrix spliceContext(const FeatureMatrix &features,
                            unsigned context);

} // namespace asr::frontend

#endif // ASR_FRONTEND_MFCC_HH
