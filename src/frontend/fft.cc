#include "frontend/fft.hh"

#include <algorithm>
#include <cmath>

#include "common/bits.hh"
#include "common/compiler.hh"
#include "common/logging.hh"

namespace asr::frontend {

namespace {

/**
 * The bit-reversal permutation of @p n slots: slot i takes input
 * rev[i].  It is an involution, so input rev[i] also lands in slot i.
 */
std::vector<std::size_t>
bitReversal(std::size_t n)
{
    std::vector<std::size_t> rev(n);
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        rev[i] = j;
    }
    return rev;
}

/** The root of unity fft() steps its twiddles by at length @p len. */
Complex
stageRoot(std::size_t len)
{
    const double ang = -2.0 * M_PI / double(len);
    return Complex(std::cos(ang), std::sin(ang));
}

/**
 * fft()'s butterfly on split arrays, with its complex multiply
 * v = b * w written out as (br wr - bi wi, br wi + bi wr).
 */
inline void
butterfly(double &ar, double &ai, double &br, double &bi, double wr,
          double wi)
{
    const double vr = br * wr - bi * wi;
    const double vi = br * wi + bi * wr;
    const double ur = ar, ui = ai;
    ar = ur + vr;
    ai = ui + vi;
    br = ur - vr;
    bi = ui - vi;
}

/**
 * One block of a stage with @p h twiddles: butterflies (a[k], b[k])
 * with twiddle w[k], for k in [0, h).
 */
void
butterflies(double *ASR_RESTRICT ar, double *ASR_RESTRICT ai,
            double *ASR_RESTRICT br, double *ASR_RESTRICT bi,
            const double *ASR_RESTRICT wr,
            const double *ASR_RESTRICT wi, std::size_t h)
{
    for (std::size_t k = 0; k < h; ++k)
        butterfly(ar[k], ai[k], br[k], bi[k], wr[k], wi[k]);
}

} // namespace

void
fft(std::vector<Complex> &data)
{
    const std::size_t n = data.size();
    ASR_ASSERT(isPowerOf2(n), "FFT size must be a power of two");
    if (n <= 1)
        return;

    const std::vector<std::size_t> rev = bitReversal(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (i < rev[i])
            std::swap(data[i], data[rev[i]]);
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const Complex wl = stageRoot(len);
        for (std::size_t i = 0; i < n; i += len) {
            Complex w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const Complex u = data[i + k];
                const Complex v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wl;
            }
        }
    }
}

PowerSpectrum::PowerSpectrum(std::size_t fft_size)
    : n(fft_size)
{
    ASR_ASSERT(isPowerOf2(n), "FFT size must be a power of two");
    bitrev = bitReversal(n);

    // Each stage restarts fft()'s recurrence at w = 1 for every
    // block, so one run per stage yields that stage's table.
    twRe.reserve(n);
    twIm.reserve(n);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const Complex wl = stageRoot(len);
        Complex w(1.0, 0.0);
        for (std::size_t k = 0; k < len / 2; ++k) {
            twRe.push_back(w.real());
            twIm.push_back(w.imag());
            w *= wl;
        }
    }
}

void
PowerSpectrum::compute(std::span<const double> frame,
                       std::span<double> power) const
{
    ASR_ASSERT(frame.size() <= n, "frame of %zu samples longer than "
               "the FFT size %zu", frame.size(), n);
    ASR_ASSERT(power.size() == numBins(),
               "power spectrum needs %zu bins, got %zu", numBins(),
               power.size());

    static thread_local std::vector<double> scratch;
    scratch.resize(2 * n);
    double *ASR_RESTRICT re = scratch.data();
    double *ASR_RESTRICT im = re + n;

    // Zero-padded real input in bit-reversed order.
    std::fill_n(re, 2 * n, 0.0);
    for (std::size_t j = 0; j < frame.size(); ++j)
        re[bitrev[j]] = frame[j];

    // The stages of one and two twiddles are too short to vectorize
    // along k; one pass over blocks of four runs both.
    if (n == 2)
        butterfly(re[0], im[0], re[1], im[1], twRe[0], twIm[0]);
    if (n >= 4) {
        const double w0r = twRe[0], w0i = twIm[0];
        const double w1r = twRe[1], w1i = twIm[1];
        const double w2r = twRe[2], w2i = twIm[2];
        for (std::size_t i = 0; i < n; i += 4) {
            butterfly(re[i], im[i], re[i + 1], im[i + 1], w0r, w0i);
            butterfly(re[i + 2], im[i + 2], re[i + 3], im[i + 3], w0r,
                      w0i);
            butterfly(re[i], im[i], re[i + 2], im[i + 2], w1r, w1i);
            butterfly(re[i + 1], im[i + 1], re[i + 3], im[i + 3], w2r,
                      w2i);
        }
    }
    for (std::size_t h = 4; h < n; h <<= 1) {
        for (std::size_t i = 0; i < n; i += 2 * h)
            butterflies(re + i, im + i, re + i + h, im + i + h,
                        twRe.data() + h - 1, twIm.data() + h - 1, h);
    }

    // std::norm's x * x + y * y.
    for (std::size_t k = 0; k < power.size(); ++k)
        power[k] = re[k] * re[k] + im[k] * im[k];
}

std::vector<Complex>
naiveDft(const std::vector<Complex> &data)
{
    const std::size_t n = data.size();
    std::vector<Complex> out(n, Complex(0.0, 0.0));
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t t = 0; t < n; ++t) {
            const double ang = -2.0 * M_PI * double(k) * double(t) /
                               double(n);
            out[k] += data[t] * Complex(std::cos(ang), std::sin(ang));
        }
    }
    return out;
}

} // namespace asr::frontend
