/**
 * @file
 * Backend equivalence tests: the blocked backend must reproduce the
 * reference bit-for-bit across shapes (including tile-tail
 * dimensions and context-splice edge frames), and a batch row must
 * score the same bits as that row alone on every backend.
 *
 * The dispatch has its own contract: blocked is bit-identical to the
 * reference on its AVX-512, AVX2 and scalar kernels alike.  Every
 * kernel the CPU offers is exercised in one process via the test
 * cap.
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
    for (auto kind : {BackendKind::Reference, BackendKind::Blocked}) {
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

TEST(BackendName, StableNamesTheBenchJsonPrints)
{
    // dnn_throughput's JSON rows and diagnostics print these words.
    const Dnn net = makeNet(10, {20}, 30, 3);
    EXPECT_EQ(Backend::create(BackendKind::Reference, net)->name(),
              "reference");
    EXPECT_EQ(Backend::create(BackendKind::Blocked, net)->name(),
              "blocked");
}

TEST(BackendSimd, ForcedScalarFallbackIsBitIdentical)
{
    // With the cap asserting "no SIMD", blocked must construct on
    // its scalar kernel and stay bitwise equal to the reference.  The
    // cap is read at construction, so the guard wraps backend
    // creation.
    const Dnn net = makeNet(33, {17, 9}, 13, 808);
    const SimdCapGuard guard(cpu::SimdCap::Scalar);
    ASSERT_FALSE(cpu::hasAvx2());
    ASSERT_FALSE(cpu::hasAvx512());
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    EXPECT_EQ(blk->isa(), "scalar");
    const Matrix input = randomInput(19, 33, 606);
    expectBitIdentical(ref->scoreBatch(input),
                       blk->scoreBatch(input));
}

TEST(BackendSimd, IsaReportsDispatchDecision)
{
    const Dnn net = makeNet(12, {8}, 6, 99);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    EXPECT_EQ(ref->isa(), "scalar");
    // blocked takes the widest kernel the predicates allow, and the
    // human-readable level names it in the same word.
    const std::string_view widest = cpu::hasAvx512() ? "avx512"
                                    : cpu::hasAvx2() ? "avx2"
                                                     : "scalar";
    EXPECT_EQ(blk->isa(), widest);
    EXPECT_EQ(cpu::simdLevel(), widest);

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
    // Digital silence: an all-zero batch scores the same bits on
    // both backends, and its rows still normalize.
    const Dnn net = makeNet(12, {8}, 6, 55);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    Matrix zero(2, 12);  // all-zero batch
    const Matrix scores = blk->scoreBatch(zero);
    expectBitIdentical(ref->scoreBatch(zero), scores);
    // Log-softmax rows must still normalize.
    for (std::size_t r = 0; r < scores.rows(); ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < scores.cols(); ++c)
            sum += std::exp(double(scores.at(r, c)));
        ASSERT_NEAR(sum, 1.0, 1e-4);
    }
}
