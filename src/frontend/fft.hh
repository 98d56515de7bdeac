/**
 * @file
 * The MFCC pipeline's power spectrum: a radix-2 FFT planned once per
 * size (PowerSpectrum), the plain FFT it reproduces bit for bit
 * (fft), and a naive DFT to check both against.
 *
 * PowerSpectrum and fft() give identical bits because every output
 * sees the same IEEE operations, in the same order, on the same
 * values.  The plan's twiddles come from running fft()'s own
 * recurrence, and its butterfly writes out the complex multiply that
 * GCC emits for finite operands (its NaN-recovery call runs only
 * when both parts of a product are NaN, which finite input never
 * makes).  The audio boundaries refuse non-finite samples.  Both
 * paths need each multiply and add rounded on its own, so the
 * library builds with -ffp-contract=off.
 */

#ifndef ASR_FRONTEND_FFT_HH
#define ASR_FRONTEND_FFT_HH

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace asr::frontend {

using Complex = std::complex<double>;

/**
 * In-place iterative radix-2 Cooley-Tukey forward FFT: the reference
 * PowerSpectrum is tested against.
 * @param data complex buffer; size must be a power of two
 */
void fft(std::vector<Complex> &data);

/**
 * Power spectrum of a real frame, |FFT(x)|^2 for bins 0..N/2, from a
 * plan built once for one transform size N.  Bit-identical to
 * std::norm of fft()'s bins for finite input.
 *
 * The plan holds the bit-reversal indices and, per radix-2 stage,
 * the twiddles fft()'s recurrence produces, split into real and
 * imaginary arrays; compute() runs the butterflies from that table
 * on split arrays.  A plan is immutable, so threads can share one;
 * each thread's split arrays are thread-local scratch.
 */
class PowerSpectrum
{
  public:
    /** @param fft_size power-of-two transform size N */
    explicit PowerSpectrum(std::size_t fft_size);

    /** Output bins: N/2 + 1. */
    std::size_t numBins() const { return n / 2 + 1; }

    /**
     * @param frame real input, at most N samples; zero-padded
     * @param power numBins() outputs
     */
    void compute(std::span<const double> frame,
                 std::span<double> power) const;

  private:
    std::size_t n;
    std::vector<std::size_t> bitrev;  //!< bitrev[i]: input of slot i
    /**
     * Twiddles of the stage with half-length h (transform length 2h)
     * at [h - 1, 2h - 1): N - 1 values in all.
     */
    std::vector<double> twRe;
    std::vector<double> twIm;
};

/** O(N^2) reference DFT (tests only). */
std::vector<Complex> naiveDft(const std::vector<Complex> &data);

} // namespace asr::frontend

#endif // ASR_FRONTEND_FFT_HH
