/**
 * @file
 * Unit tests for the common utilities: bit helpers, the reproducible
 * RNG, unit formatting, the table renderer, the CPU-feature dispatch
 * predicate behind the SIMD kernels, and the strict argv port parser
 * the network tools share.
 */

#include <gtest/gtest.h>

#include "common/bits.hh"
#include "common/cli.hh"
#include "common/cpuinfo.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/units.hh"

using namespace asr;

TEST(Bits, PowerOfTwoPredicate)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

/** floorLog2/ceilLog2/nextPowerOf2 agree on a sweep of values. */
class BitsLog2 : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BitsLog2, Log2Identities)
{
    const std::uint64_t v = GetParam();
    const unsigned fl = floorLog2(v);
    EXPECT_LE(1ull << fl, v);
    if (fl < 63) {
        EXPECT_GT(1ull << (fl + 1), v);
    }
    const unsigned cl = ceilLog2(v);
    EXPECT_GE(1ull << cl, v);
    EXPECT_EQ(nextPowerOf2(v), 1ull << cl);
    if (isPowerOf2(v))
        EXPECT_EQ(fl, cl);
    else
        EXPECT_EQ(cl, fl + 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BitsLog2,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15,
                                           16, 17, 63, 64, 65, 1000,
                                           1024, 4095, 4096, 4097,
                                           (1ull << 32) - 1,
                                           1ull << 32,
                                           (1ull << 32) + 1));

TEST(Bits, Alignment)
{
    EXPECT_EQ(alignDown(100, 64), 64u);
    EXPECT_EQ(alignUp(100, 64), 128u);
    EXPECT_EQ(alignDown(128, 64), 128u);
    EXPECT_EQ(alignUp(128, 64), 128u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
    EXPECT_EQ(divCeil(0, 3), 0u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanAndBounds)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform(-2.0, 4.0);
    EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(17), 17u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(5);
    const int n = 200000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(9);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.25);
    EXPECT_NEAR(double(hits) / n, 0.25, 0.01);
}

TEST(Rng, PowerLawBoundsAndShape)
{
    Rng rng(13);
    const unsigned kmax = 770;
    std::uint64_t ones = 0, total = 0;
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const unsigned k = rng.powerLaw(2.42, kmax);
        ASSERT_GE(k, 1u);
        ASSERT_LE(k, kmax);
        ones += k == 1;
        sum += k;
        ++total;
    }
    // Power laws are bottom-heavy: degree 1 dominates, and the mean
    // sits near the WFST's 2.56 arcs/state for the default alpha.
    EXPECT_GT(double(ones) / double(total), 0.4);
    EXPECT_NEAR(sum / double(total), 2.7, 0.7);
}

TEST(Units, ByteLiterals)
{
    EXPECT_EQ(512_KiB, 512ull * 1024);
    EXPECT_EQ(1_MiB, 1024ull * 1024);
    EXPECT_EQ(4_GiB, 4ull * 1024 * 1024 * 1024);
}

TEST(Units, CycleConversions)
{
    EXPECT_DOUBLE_EQ(cyclesToSeconds(600000000, 600e6), 1.0);
    EXPECT_EQ(secondsToCycles(1.0, 600e6), 600000000ull);
    EXPECT_EQ(secondsToCycles(0.5, 600e6), 300000000ull);
}

TEST(Units, Formatting)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(512_KiB), "512 KB");
    EXPECT_EQ(formatBytes(1_GiB), "1 GB");
    EXPECT_EQ(formatSeconds(0.002), "2.000 ms");
    EXPECT_EQ(formatSeconds(2.5e-6), "2.500 us");
}

TEST(CpuInfo, DispatchPredicateHonorsTestOverride)
{
    // Whatever the host supports, a scalar cap must win: the
    // predicates the kernels consult go false and the reported level
    // follows.  Clearing restores the hardware answer.
    const bool hw2 = cpu::cpuSupportsAvx2();
    const bool hw512 = cpu::cpuSupportsAvx512();
    cpu::setSimdCapForTest(cpu::SimdCap::Scalar);
    EXPECT_TRUE(cpu::simdForcedOff());
    EXPECT_FALSE(cpu::hasAvx2());
    EXPECT_FALSE(cpu::hasAvx512());
    EXPECT_EQ(cpu::simdLevel(), "scalar");
    // The cap never rewrites the hardware probes themselves.
    EXPECT_EQ(cpu::cpuSupportsAvx2(), hw2);
    EXPECT_EQ(cpu::cpuSupportsAvx512(), hw512);

    // Capped at AVX2: the AVX2 kernels stay, the AVX-512 one goes.
    cpu::setSimdCapForTest(cpu::SimdCap::Avx2);
    EXPECT_FALSE(cpu::simdForcedOff());
    EXPECT_EQ(cpu::hasAvx2(), hw2);
    EXPECT_FALSE(cpu::hasAvx512());
    EXPECT_EQ(cpu::simdLevel(), hw2 ? "avx2" : "scalar");

    // An AVX-512 cap overrides even an ASR_FORCE_SCALAR environment:
    // dispatch follows the hardware alone.
    cpu::setSimdCapForTest(cpu::SimdCap::Avx512);
    EXPECT_FALSE(cpu::simdForcedOff());
    EXPECT_EQ(cpu::hasAvx2(), hw2);
    EXPECT_EQ(cpu::hasAvx512(), hw512);

    cpu::clearSimdCapForTest();
    EXPECT_EQ(cpu::cpuSupportsAvx2(), hw2);
    EXPECT_EQ(cpu::cpuSupportsAvx512(), hw512);
}

TEST(CpuInfo, SimdLevelMatchesPredicate)
{
    EXPECT_EQ(cpu::simdLevel(), cpu::hasAvx512() ? "avx512"
                                : cpu::hasAvx2() ? "avx2"
                                                 : "scalar");
    // Probe caching: repeated calls must agree.
    const bool first2 = cpu::hasAvx2();
    const bool first512 = cpu::hasAvx512();
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(cpu::hasAvx2(), first2);
        EXPECT_EQ(cpu::hasAvx512(), first512);
    }
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.row().add("alpha").add(std::uint64_t(10));
    t.row().add("beta").addPercent(0.5);
    t.row().add("gamma").addRatio(1.87);
    const std::string out = t.render();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("50.0%"), std::string::npos);
    EXPECT_NE(out.find("1.87x"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Cli, PortParserAcceptsOnlyStrictDecimalPorts)
{
    std::uint16_t port = 0;
    EXPECT_TRUE(tryParsePort("18000", false, port));
    EXPECT_EQ(port, 18000u);
    EXPECT_TRUE(tryParsePort("1", false, port));
    EXPECT_EQ(port, 1u);
    EXPECT_TRUE(tryParsePort("65535", false, port));
    EXPECT_EQ(port, 65535u);

    // Out of range -- including a value that would wrap onto 18000
    // if it were narrowed before the check -- trailing junk, a sign,
    // leading whitespace, and the empty string are all rejected, and
    // a rejection leaves the output untouched.
    port = 7;
    for (const char *bad : {"65536", "4294985296", "18446744073709569616",
                            "18000x", "-1", "+80", " 80", "", "abc"})
        EXPECT_FALSE(tryParsePort(bad, true, port)) << "'" << bad << "'";
    EXPECT_EQ(port, 7u);

    // Port 0 (ephemeral) only where the caller allows it.
    EXPECT_FALSE(tryParsePort("0", false, port));
    EXPECT_TRUE(tryParsePort("0", true, port));
    EXPECT_EQ(port, 0u);
}

TEST(Cli, PortArgExitsOnABadPort)
{
    EXPECT_EQ(parsePortArg("18000", false), 18000u);
    EXPECT_EXIT(parsePortArg("18000x", false),
                ::testing::ExitedWithCode(EXIT_FAILURE), "invalid port");
    EXPECT_EXIT(parsePortArg("0", false),
                ::testing::ExitedWithCode(EXIT_FAILURE), "invalid port");
}
