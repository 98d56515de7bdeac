/**
 * @file
 * Backend equivalence tests: the blocked float backend must reproduce
 * the reference bit-for-bit across shapes (including tile-tail
 * dimensions and context-splice edge frames), a batch row must score
 * the same bits as that row alone on every backend, and the int8
 * backend must stay within bounded score error of the float paths.
 *
 * The dispatch has its own contracts: blocked is bit-identical to
 * the reference on its AVX-512, AVX2 and scalar kernels alike, and
 * int8's AVX2 kernel is bit-identical to its scalar kernel (integer
 * addition is associative).  Every kernel the CPU offers is
 * exercised in one process via the test cap.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acoustic/backend.hh"
#include "acoustic/scorer.hh"
#include "common/cpuinfo.hh"
#include "common/rng.hh"

using namespace asr;
using namespace asr::acoustic;

namespace {

Dnn
makeNet(std::size_t input, std::vector<std::size_t> hidden,
        std::size_t output, std::uint64_t seed)
{
    DnnConfig cfg;
    cfg.inputDim = input;
    cfg.hidden = std::move(hidden);
    cfg.outputDim = output;
    cfg.seed = seed;
    return Dnn(cfg);
}

Matrix
randomInput(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Matrix m(rows, cols);
    Rng rng(seed);
    for (float &v : m.data())
        v = float(rng.uniform(-2.0, 2.0));
    return m;
}

/** Exact float equality, element by element. */
void
expectBitIdentical(const Matrix &a, const Matrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            ASSERT_EQ(a.at(r, c), b.at(r, c))
                << "mismatch at (" << r << ", " << c << ")";
}

/** Restores the SIMD test cap on scope exit. */
struct SimdCapGuard
{
    explicit SimdCapGuard(cpu::SimdCap cap)
    {
        cpu::setSimdCapForTest(cap);
    }
    ~SimdCapGuard() { cpu::clearSimdCapForTest(); }
};

/**
 * Asserts that blocked backends built by @p makeBlocked score
 * bit-identically to the reference, over shapes chosen to exercise
 * the packed layout's tails: output dims below one tile, exactly one
 * tile, and off-tile remainders; odd input dims; one and two hidden
 * layers; one wide layer whose panels overflow L1, as in the serving
 * models.
 */
template <class MakeBlocked>
void
expectBlockedMatchesReference(MakeBlocked makeBlocked)
{
    struct Shape
    {
        std::size_t in;
        std::vector<std::size_t> hidden;
        std::size_t out;
    };
    const Shape shapes[] = {
        {5, {7}, 3},       // everything smaller than a tile
        {16, {16}, 8},     // exact tile multiples
        {33, {17, 9}, 13}, // off-tile everywhere, two hidden layers
        {65, {96, 96}, 24},// the demo model's shape
        {13, {}, 5},       // no hidden layer at all
        {1031, {257}, 13}, // wide input, off-tile hidden width
    };
    // Inside 32-row blocks the AVX-512 kernel scores eight rows per
    // pass and the leftover rows in one shorter pass; the AVX2 kernel
    // scores three rows per pass and the rest one at a time.  These
    // batches leave every remainder of eight, and of three, both
    // within one block (1-9, 15-17, 23, 31, 32) and across two
    // (33, 34, 36-38, 40, 47, 59, 64).
    const std::size_t batches[] = {1,  2,  3,  4,  5,  6,  7,  8,
                                   9,  15, 16, 17, 23, 31, 32, 33,
                                   34, 36, 37, 38, 40, 47, 59, 64};
    std::uint64_t seed = 1;
    for (const Shape &s : shapes) {
        const Dnn net = makeNet(s.in, s.hidden, s.out, 1000 + seed);
        const auto ref = Backend::create(BackendKind::Reference, net);
        const std::unique_ptr<Backend> blk = makeBlocked(net);
        for (const std::size_t batch : batches) {
            const Matrix input = randomInput(batch, s.in, seed++);
            expectBitIdentical(ref->scoreBatch(input),
                               blk->scoreBatch(input));
        }
    }
}

/** The word blocked's isa() reports for the kernel @p cap allows. */
std::string
kernelName(cpu::SimdCap cap)
{
    switch (cap) {
      case cpu::SimdCap::Scalar: return "scalar";
      case cpu::SimdCap::Avx2:   return "avx2";
      case cpu::SimdCap::Avx512: return "avx512";
    }
    return "unknown";
}

} // namespace

TEST(BackendEquivalence, BlockedMatchesReferenceBitExact)
{
    // The kernel this host dispatches to with no cap, as deployed.
    expectBlockedMatchesReference([](const Dnn &net) {
        return Backend::create(BackendKind::Blocked, net);
    });
}

/** The same check pinned to each blocked kernel in turn. */
class BlockedKernel : public ::testing::TestWithParam<cpu::SimdCap>
{
};

TEST_P(BlockedKernel, MatchesReferenceBitExact)
{
    const cpu::SimdCap cap = GetParam();
    if (cap == cpu::SimdCap::Avx512 && !cpu::cpuSupportsAvx512())
        GTEST_SKIP() << "CPU lacks AVX-512F: the avx512 kernel is "
                        "not tested on this host";
    if (cap == cpu::SimdCap::Avx2 && !cpu::cpuSupportsAvx2())
        GTEST_SKIP() << "CPU lacks AVX2: the avx2 kernel is not "
                        "tested on this host";
    // The cap is read at construction, so it wraps backend creation.
    expectBlockedMatchesReference([cap](const Dnn &net) {
        const SimdCapGuard guard(cap);
        auto blk = Backend::create(BackendKind::Blocked, net);
        EXPECT_EQ(blk->isa(), kernelName(cap));
        return blk;
    });
}

INSTANTIATE_TEST_SUITE_P(
    BackendEquivalence, BlockedKernel,
    ::testing::Values(cpu::SimdCap::Scalar, cpu::SimdCap::Avx2,
                      cpu::SimdCap::Avx512),
    [](const ::testing::TestParamInfo<cpu::SimdCap> &info) {
        return kernelName(info.param);
    });

TEST(BackendEquivalence, BatchRowDependsOnlyOnItsInputRow)
{
    // The contract that lets sessions park rows and have them scored
    // in any batch: row r of scoreBatch equals scoreBatch of row r
    // alone, on every backend.
    const Dnn net = makeNet(21, {19, 11}, 9, 77);
    const Matrix input = randomInput(6, 21, 5);
    for (auto kind : {BackendKind::Reference, BackendKind::Blocked,
                      BackendKind::Int8}) {
        const auto backend = Backend::create(kind, net);
        const Matrix batch = backend->scoreBatch(input);
        for (std::size_t r = 0; r < input.rows(); ++r) {
            Matrix row(1, input.cols());
            std::copy(input.row(r).begin(), input.row(r).end(),
                      row.row(0).begin());
            const Matrix alone = backend->scoreBatch(row);
            ASSERT_EQ(alone.cols(), batch.cols());
            for (std::size_t c = 0; c < alone.cols(); ++c)
                ASSERT_EQ(alone.at(0, c), batch.at(r, c))
                    << backendName(kind) << " row " << r << " col "
                    << c;
        }
    }
}

TEST(BackendEquivalence, DnnScorerAgreesAcrossBackendsOnEdgeFrames)
{
    // Context splicing replicates edge frames; utterances shorter
    // than the splice window are all edge.  The scorer must produce
    // bit-identical likelihoods through reference and blocked for
    // every length, including 1- and 2-frame utterances.
    const unsigned ctx = 2;
    const std::size_t dim = 13;
    const Dnn net = makeNet((2 * ctx + 1) * dim, {24}, 10, 31);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    const DnnScorer refScorer(*ref, ctx);
    const DnnScorer blkScorer(*blk, ctx);

    Rng rng(9);
    for (std::size_t frames : {1u, 2u, 3u, 5u, 8u, 40u}) {
        frontend::FeatureMatrix feats(frames,
                                      std::vector<float>(dim));
        for (auto &row : feats)
            for (float &v : row)
                v = float(rng.uniform(-1.0, 1.0));
        const auto a = refScorer.score(feats);
        const auto b = blkScorer.score(feats);
        ASSERT_EQ(a.numFrames(), frames);
        ASSERT_EQ(b.numFrames(), frames);
        for (std::size_t f = 0; f < frames; ++f)
            for (std::uint32_t p = 0; p <= a.numPhonemes(); ++p)
                ASSERT_EQ(a.score(f, p), b.score(f, p))
                    << frames << "-frame utterance, frame " << f
                    << ", phoneme " << p;
    }
}

TEST(BackendEquivalence, Int8ScoreErrorBounded)
{
    const Dnn net = makeNet(65, {96, 96}, 24, 4242);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto q = Backend::create(BackendKind::Int8, net);
    const Matrix input = randomInput(64, 65, 123);
    const Matrix a = ref->scoreBatch(input);
    const Matrix b = q->scoreBatch(input);
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());

    float maxErr = 0.0f;
    std::size_t argmaxAgree = 0;
    for (std::size_t r = 0; r < a.rows(); ++r) {
        std::size_t ba = 0, bb = 0;
        for (std::size_t c = 0; c < a.cols(); ++c) {
            maxErr = std::max(maxErr,
                              std::abs(a.at(r, c) - b.at(r, c)));
            if (a.at(r, c) > a.at(r, ba))
                ba = c;
            if (b.at(r, c) > b.at(r, bb))
                bb = c;
        }
        if (ba == bb)
            ++argmaxAgree;
    }
    // 8-bit symmetric quantization of a 2-hidden-layer net keeps the
    // log-softmax scores within a fraction of a log unit; anything
    // larger indicates a broken scale chain.
    EXPECT_LT(maxErr, 0.5f);
    EXPECT_GE(argmaxAgree, (a.rows() * 9) / 10)
        << "int8 disagreed on the best senone too often";
}

TEST(BackendCostModel, MacsAndWeightBytes)
{
    const Dnn net = makeNet(10, {20}, 30, 3);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    const auto q = Backend::create(BackendKind::Int8, net);

    // The stable names bench JSON and diagnostics print.
    EXPECT_EQ(ref->name(), "reference");
    EXPECT_EQ(blk->name(), "blocked");
    EXPECT_EQ(q->name(), "int8");

    const std::uint64_t macs = 10 * 20 + 20 * 30;
    EXPECT_EQ(ref->macsPerFrame(), macs);
    EXPECT_EQ(blk->macsPerFrame(), macs);
    EXPECT_EQ(q->macsPerFrame(), macs);

    // Float: 4 bytes per weight + 4 per bias entry.
    const std::uint64_t floatBytes =
        (10 * 20 + 20 * 30) * 4 + (20 + 30) * 4;
    EXPECT_EQ(ref->weightBytesPerFrame(), floatBytes);
    EXPECT_EQ(blk->weightBytesPerFrame(), floatBytes);
    // Int8: 1 byte per weight + per-channel scale + bias.
    const std::uint64_t int8Bytes =
        (10 * 20 + 20 * 30) * 1 + (20 + 30) * 8;
    EXPECT_EQ(q->weightBytesPerFrame(), int8Bytes);
    EXPECT_LT(q->weightBytesPerFrame(), ref->weightBytesPerFrame());

    EXPECT_TRUE(ref->bitIdenticalToReference());
    EXPECT_TRUE(blk->bitIdenticalToReference());
    EXPECT_FALSE(q->bitIdenticalToReference());
}

TEST(BackendSimd, Int8Avx2BitwiseMatchesScalarInt8)
{
    // Integer accumulation is associative, so int8's vpmaddubsw
    // kernel must reproduce its scalar kernel's scores exactly --
    // including on shapes whose input dim is not a multiple of the
    // 4-wide k groups, where the packed panels are zero-padded.  The
    // override is read at construction, so the scalar side is built
    // under it and the dispatched side after it is lifted.
    struct Shape
    {
        std::size_t in;
        std::vector<std::size_t> hidden;
        std::size_t out;
    };
    const Shape shapes[] = {
        {5, {7}, 3},
        {16, {16}, 8},
        {33, {17, 9}, 13},
        {65, {96, 96}, 24},
        {13, {}, 5},
    };
    std::uint64_t seed = 5000;
    for (const Shape &s : shapes) {
        const Dnn net = makeNet(s.in, s.hidden, s.out, 4000 + seed);
        std::unique_ptr<Backend> scalar;
        {
            const SimdCapGuard guard(cpu::SimdCap::Scalar);
            scalar = Backend::create(BackendKind::Int8, net);
        }
        ASSERT_EQ(scalar->isa(), "scalar");
        const auto avx = Backend::create(BackendKind::Int8, net);
        for (std::size_t batch : {1u, 2u, 17u, 64u}) {
            const Matrix input = randomInput(batch, s.in, seed++);
            expectBitIdentical(scalar->scoreBatch(input),
                               avx->scoreBatch(input));
        }
    }
}

TEST(BackendSimd, ForcedScalarFallbackIsBitIdentical)
{
    // With the cap asserting "no SIMD", blocked and int8 must
    // construct on their scalar kernels: blocked stays bitwise equal
    // to the reference and int8 to int8 built with SIMD allowed.
    // The cap is read at construction, so the guard wraps backend
    // creation.
    const Dnn net = makeNet(33, {17, 9}, 13, 808);
    const auto dispatched = Backend::create(BackendKind::Int8, net);
    const SimdCapGuard guard(cpu::SimdCap::Scalar);
    ASSERT_FALSE(cpu::hasAvx2());
    ASSERT_FALSE(cpu::hasAvx512());
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    const auto int8 = Backend::create(BackendKind::Int8, net);
    EXPECT_EQ(blk->isa(), "scalar");
    EXPECT_EQ(int8->isa(), "scalar");
    EXPECT_TRUE(blk->bitIdenticalToReference());
    const Matrix input = randomInput(19, 33, 606);
    expectBitIdentical(ref->scoreBatch(input),
                       blk->scoreBatch(input));
    expectBitIdentical(dispatched->scoreBatch(input),
                       int8->scoreBatch(input));
}

TEST(BackendSimd, IsaReportsDispatchDecision)
{
    const Dnn net = makeNet(12, {8}, 6, 99);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    const auto q = Backend::create(BackendKind::Int8, net);
    EXPECT_EQ(ref->isa(), "scalar");
    // blocked takes the widest kernel the predicates allow, and the
    // human-readable level names it in the same word; int8 has no
    // AVX-512 kernel.
    const std::string_view widest = cpu::hasAvx512() ? "avx512"
                                    : cpu::hasAvx2() ? "avx2"
                                                     : "scalar";
    EXPECT_EQ(blk->isa(), widest);
    EXPECT_EQ(cpu::simdLevel(), widest);
    EXPECT_EQ(q->isa(), cpu::hasAvx2() ? "avx2" : "scalar");
    // blocked keeps the bit-identity contract on every kernel.
    EXPECT_TRUE(blk->bitIdenticalToReference());

    // Capped at AVX2, as on a CPU without AVX-512F, blocked takes the
    // AVX2 kernel.
    const SimdCapGuard guard(cpu::SimdCap::Avx2);
    EXPECT_FALSE(cpu::hasAvx512());
    const auto capped = Backend::create(BackendKind::Blocked, net);
    EXPECT_EQ(capped->isa(), cpu::cpuSupportsAvx2() ? "avx2" : "scalar");
    EXPECT_EQ(cpu::simdLevel(), capped->isa());
}

TEST(BackendEquivalence, ZeroInputRow)
{
    // Digital silence: the int8 dynamic quantizer hits its amax == 0
    // special case; float paths must agree with each other too.
    const Dnn net = makeNet(12, {8}, 6, 55);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    const auto q = Backend::create(BackendKind::Int8, net);
    Matrix zero(2, 12);  // all-zero batch
    expectBitIdentical(ref->scoreBatch(zero), blk->scoreBatch(zero));
    const Matrix qi = q->scoreBatch(zero);
    // Log-softmax rows must still normalize.
    for (std::size_t r = 0; r < qi.rows(); ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < qi.cols(); ++c)
            sum += std::exp(double(qi.at(r, c)));
        ASSERT_NEAR(sum, 1.0, 1e-4);
    }
}
