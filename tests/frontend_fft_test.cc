/**
 * @file
 * Tests for the FFT: agreement with a naive DFT, Parseval's
 * identity, and the planned power spectrum, which must reproduce
 * fft()'s bits.
 */

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "frontend/fft.hh"

using namespace asr;
using namespace asr::frontend;

namespace {

std::vector<Complex>
randomSignal(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Complex> v(n);
    for (auto &x : v)
        x = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return v;
}

/**
 * One seeded frame of @p len samples.  Kinds: 0 speech scale, 1 to 3
 * speech scale times 1e-3, 3e4 and 1e-30, 4 with +-FLT_MAX mixed in,
 * 5 with runs of zeros and -0.
 */
std::vector<double>
seededFrame(std::size_t len, unsigned kind, Rng &rng)
{
    static constexpr double kScale[] = {1.0, 1e-3, 3e4, 1e-30, 1.0,
                                        1.0};
    std::vector<double> frame(len);
    for (std::size_t i = 0; i < len; ++i) {
        double x = rng.gaussian(0.0, 3000.0) * kScale[kind];
        if (kind == 4 && rng.bernoulli(0.05))
            x = rng.bernoulli(0.5) ? FLT_MAX : -FLT_MAX;
        frame[i] = x;
    }
    if (kind == 5) {
        for (std::size_t i = 0; i < len;) {
            const std::size_t run = 1 + rng.below(16);
            if (rng.bernoulli(0.5)) {
                for (std::size_t j = i; j < std::min(len, i + run); ++j)
                    frame[j] = rng.bernoulli(0.5) ? 0.0 : -0.0;
            }
            i += run;
        }
    }
    return frame;
}

} // namespace

/** FFT equals the O(N^2) DFT for all power-of-two sizes. */
class FftVsDft : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FftVsDft, MatchesNaiveDft)
{
    const std::size_t n = GetParam();
    std::vector<Complex> sig = randomSignal(n, 100 + n);
    const std::vector<Complex> expect = naiveDft(sig);
    fft(sig);
    ASSERT_EQ(sig.size(), expect.size());
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(sig[i].real(), expect[i].real(), 1e-6 * n)
            << "bin " << i;
        ASSERT_NEAR(sig[i].imag(), expect[i].imag(), 1e-6 * n)
            << "bin " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftVsDft,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64,
                                           128, 256));

TEST(Fft, ParsevalIdentity)
{
    const std::size_t n = 256;
    std::vector<Complex> sig = randomSignal(n, 17);
    double time_energy = 0.0;
    for (const auto &x : sig)
        time_energy += std::norm(x);
    fft(sig);
    double freq_energy = 0.0;
    for (const auto &x : sig)
        freq_energy += std::norm(x);
    EXPECT_NEAR(freq_energy / double(n), time_energy, 1e-6);
}

TEST(Fft, ImpulseIsFlat)
{
    std::vector<Complex> sig(64, Complex(0, 0));
    sig[0] = Complex(1, 0);
    fft(sig);
    for (const auto &x : sig) {
        ASSERT_NEAR(x.real(), 1.0, 1e-9);
        ASSERT_NEAR(x.imag(), 0.0, 1e-9);
    }
}

TEST(Fft, PureToneConcentratesEnergy)
{
    const std::size_t n = 512;
    std::vector<double> frame(n);
    const double bin = 37.0;
    for (std::size_t i = 0; i < n; ++i)
        frame[i] = std::sin(2.0 * M_PI * bin * double(i) / double(n));
    const PowerSpectrum plan(n);
    std::vector<double> power(plan.numBins());
    plan.compute(frame, power);
    ASSERT_EQ(power.size(), n / 2 + 1);
    std::size_t peak = 0;
    for (std::size_t i = 1; i < power.size(); ++i)
        if (power[i] > power[peak])
            peak = i;
    EXPECT_EQ(peak, 37u);
    // Nearly all energy sits in the peak bin.
    double total = 0.0;
    for (double p : power)
        total += p;
    EXPECT_GT(power[peak] / total, 0.95);
}

TEST(Fft, PowerSpectrumZeroPads)
{
    std::vector<double> frame(100, 1.0);
    const PowerSpectrum plan(128);
    EXPECT_EQ(plan.numBins(), 65u);
    std::vector<double> power(plan.numBins());
    plan.compute(frame, power);
    // DC bin holds (sum of samples)^2.
    EXPECT_NEAR(power[0], 100.0 * 100.0, 1e-6);
}

/**
 * The plan is an optimisation of fft() followed by std::norm, not an
 * approximation of it: every bin must match to the bit.
 */
TEST(PowerSpectrum, MatchesReferenceFftBitForBit)
{
    Rng rng(24);
    for (std::size_t n = 2; n <= 1024; n <<= 1) {
        const PowerSpectrum plan(n);
        ASSERT_EQ(plan.numBins(), n / 2 + 1);
        std::vector<double> got(plan.numBins());
        for (unsigned kind = 0; kind < 6; ++kind) {
            for (unsigned trial = 0; trial < 16; ++trial) {
                // Even trials fill the transform; odd ones zero-pad.
                const std::size_t len =
                    trial % 2 == 0 ? n : std::size_t(rng.below(n));
                const std::vector<double> frame =
                    seededFrame(len, kind, rng);

                std::vector<Complex> ref(n, Complex(0.0, 0.0));
                for (std::size_t i = 0; i < len; ++i)
                    ref[i] = Complex(frame[i], 0.0);
                fft(ref);
                std::vector<double> want(plan.numBins());
                for (std::size_t k = 0; k < want.size(); ++k)
                    want[k] = std::norm(ref[k]);

                plan.compute(frame, got);
                ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                      want.size() * sizeof(double)),
                          0)
                    << "size " << n << ", kind " << kind << ", "
                    << len << " samples";
            }
        }
    }
}

TEST(FftDeath, RejectsNonPowerOfTwo)
{
    std::vector<Complex> sig(100);
    EXPECT_DEATH(fft(sig), "power of two");
    EXPECT_DEATH(PowerSpectrum{100}, "power of two");
}
