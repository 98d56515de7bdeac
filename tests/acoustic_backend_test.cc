/**
 * @file
 * Backend equivalence tests: the blocked float backend must reproduce
 * the reference bit-for-bit across shapes (including tile-tail
 * dimensions and context-splice edge frames), the streaming-frame
 * entry point must equal the corresponding batch row on every
 * backend, and the int8 backend must stay within bounded score error
 * of the float paths.
 *
 * The dispatch has its own contracts: blocked is bit-identical to
 * the reference on its AVX2 and scalar kernels alike, and int8's
 * AVX2 kernel is bit-identical to its scalar kernel (integer addition
 * is associative).  Both kernels of each backend are exercised in one
 * process via the test override.
 */

#include <cmath>
#include <cstring>
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

} // namespace

TEST(BackendEquivalence, BlockedMatchesReferenceBitExact)
{
    // Shapes chosen to exercise the packed layout's tails: output
    // dims below one tile, exactly one tile, and off-tile remainders;
    // odd input dims; one and two hidden layers; one wide layer whose
    // panels overflow L1, as in the serving models.
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
    // The AVX2 kernel scores three rows per register-blocked pass and
    // the rest one at a time, inside 32-row blocks: these batches
    // leave every remainder of three both within one block (3, 4, 5,
    // 7, 31, 32) and across two (33, 59, 64).
    const std::size_t batches[] = {1,  2,  3,  4,  5,  7,
                                   17, 31, 32, 33, 59, 64};
    std::uint64_t seed = 1;
    for (const Shape &s : shapes) {
        const Dnn net = makeNet(s.in, s.hidden, s.out, 1000 + seed);
        const auto ref = Backend::create(BackendKind::Reference, net);
        const auto blk = Backend::create(BackendKind::Blocked, net);
        for (const std::size_t batch : batches) {
            const Matrix input = randomInput(batch, s.in, seed++);
            expectBitIdentical(ref->scoreBatch(input),
                               blk->scoreBatch(input));
        }
    }
}

TEST(BackendEquivalence, ScoreFrameMatchesBatchRow)
{
    const Dnn net = makeNet(21, {19, 11}, 9, 77);
    const Matrix input = randomInput(6, 21, 5);
    for (auto kind : {BackendKind::Reference, BackendKind::Blocked,
                      BackendKind::Int8}) {
        const auto backend = Backend::create(kind, net);
        const Matrix batch = backend->scoreBatch(input);
        FrameScratch scratch;
        std::vector<float> out(backend->outputDim());
        for (std::size_t r = 0; r < input.rows(); ++r) {
            backend->scoreFrame(input.row(r), out, scratch);
            for (std::size_t c = 0; c < out.size(); ++c)
                ASSERT_EQ(out[c], batch.at(r, c))
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

namespace {

/** Restores the SIMD test override on scope exit. */
struct ScalarOverrideGuard
{
    explicit ScalarOverrideGuard(bool force)
    {
        cpu::setForceScalarForTest(force);
    }
    ~ScalarOverrideGuard() { cpu::clearForceScalarForTest(); }
};

} // namespace

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
            const ScalarOverrideGuard guard(true);
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
    // With the override asserting "no AVX2", blocked and int8 must
    // construct on their scalar kernels: blocked stays bitwise equal
    // to the reference and int8 to int8 built with SIMD allowed.
    // The override is read at construction, so the guard wraps
    // backend creation.
    const Dnn net = makeNet(33, {17, 9}, 13, 808);
    const auto dispatched = Backend::create(BackendKind::Int8, net);
    const ScalarOverrideGuard guard(true);
    ASSERT_FALSE(cpu::hasAvx2());
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
    const std::string_view expect =
        cpu::hasAvx2() ? "avx2" : "scalar";
    EXPECT_EQ(blk->isa(), expect);
    EXPECT_EQ(q->isa(), expect);
    // blocked keeps the bit-identity contract on either kernel.
    EXPECT_TRUE(blk->bitIdenticalToReference());
    // The dispatch predicate and the human-readable level agree.
    EXPECT_EQ(cpu::simdLevel(), expect);
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
