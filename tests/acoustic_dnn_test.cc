/**
 * @file
 * Tests for the DNN acoustic model: shapes, training dynamics, the
 * ability to learn separable synthetic data -- the property the full
 * pipeline depends on -- and a training step that keeps the naive
 * loops' bits on every SIMD kernel the blocked GEMM dispatches to.
 */

#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "acoustic/dnn.hh"
#include "common/cpuinfo.hh"
#include "common/rng.hh"

using namespace asr;
using namespace asr::acoustic;

namespace {

/** Two Gaussian blobs in 4-D, labels 0/1. */
void
makeBlobs(Matrix &x, std::vector<std::uint32_t> &y, std::size_t n,
          std::uint64_t seed)
{
    Rng rng(seed);
    x = Matrix(n, 4);
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const bool cls = rng.bernoulli(0.5);
        y[i] = cls ? 1 : 0;
        const double mean = cls ? 1.5 : -1.5;
        auto row = x.row(i);
        for (auto &v : row)
            v = float(rng.gaussian(mean, 1.0));
    }
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

/** A Dnn's parameters, trained by referenceStep. */
struct ReferenceNet
{
    std::vector<Matrix> weights;       //!< per layer, out x in
    std::vector<std::vector<float>> biases;
    float learningRate = 0.0f;

    explicit ReferenceNet(const Dnn &net)
        : learningRate(net.config().learningRate)
    {
        for (std::size_t l = 0; l < net.numLayers(); ++l) {
            weights.push_back(net.layerWeights(l));
            const auto b = net.layerBias(l);
            biases.emplace_back(b.begin(), b.end());
        }
    }
};

/** out = a * b, k ascending, skipping a == 0: the old acoustic::matmul. */
Matrix
referenceMatmul(const Matrix &a, const Matrix &b)
{
    Matrix out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const float av = a.at(i, k);
            if (av == 0.0f)
                continue;
            for (std::size_t j = 0; j < b.cols(); ++j)
                out.at(i, j) += av * b.at(k, j);
        }
    return out;
}

/** Columns of @p m that hold no positive value. */
std::size_t
shutColumns(const Matrix &m)
{
    std::size_t shut = 0;
    for (std::size_t c = 0; c < m.cols(); ++c) {
        bool any = false;
        for (std::size_t r = 0; r < m.rows(); ++r)
            any = any || m.at(r, c) > 0.0f;
        shut += !any;
    }
    return shut;
}

/**
 * The SGD step Dnn::trainStep must reproduce bit for bit, on the
 * naive loops: the forward through matmulTransposed, addRowBias and
 * reluInPlace; dW summed over the batch rows in ascending order,
 * skipping g == 0; dA as referenceMatmul; the same softmax gradient
 * and update.  Adds to @p dead the hidden units whose ReLU is shut
 * for every row of a batch of two or more rows.
 */
float
referenceStep(ReferenceNet &net, const Matrix &input,
              const std::vector<std::uint32_t> &labels, std::size_t &dead)
{
    const std::size_t layers = net.weights.size();
    std::vector<Matrix> acts{input};
    for (std::size_t l = 0; l < layers; ++l) {
        Matrix x = matmulTransposed(acts.back(), net.weights[l]);
        addRowBias(x, net.biases[l]);
        if (l + 1 < layers) {
            reluInPlace(x);
            if (x.rows() > 1)
                dead += shutColumns(x);
        }
        acts.push_back(std::move(x));
    }

    Matrix logp = acts.back();
    logSoftmaxRows(logp);
    const float batch = float(input.rows());
    float loss = 0.0f;
    Matrix grad(logp.rows(), logp.cols());
    for (std::size_t r = 0; r < logp.rows(); ++r) {
        loss -= logp.at(r, labels[r]);
        for (std::size_t c = 0; c < logp.cols(); ++c)
            grad.at(r, c) = std::exp(logp.at(r, c)) / batch;
        grad.at(r, labels[r]) -= 1.0f / batch;
    }
    loss /= batch;

    for (std::size_t li = layers; li-- > 0;) {
        Matrix &w = net.weights[li];
        const Matrix &in = acts[li];
        Matrix dw(w.rows(), w.cols());
        for (std::size_t r = 0; r < grad.rows(); ++r)
            for (std::size_t o = 0; o < dw.rows(); ++o) {
                const float g = grad.at(r, o);
                if (g == 0.0f)
                    continue;
                for (std::size_t k = 0; k < dw.cols(); ++k)
                    dw.at(o, k) += g * in.at(r, k);
            }
        Matrix din;
        if (li > 0) {
            din = referenceMatmul(grad, w);
            for (std::size_t i = 0; i < din.data().size(); ++i)
                if (in.data()[i] <= 0.0f)
                    din.data()[i] = 0.0f;
        }
        for (std::size_t i = 0; i < dw.data().size(); ++i)
            w.data()[i] -= net.learningRate * dw.data()[i];
        for (std::size_t r = 0; r < grad.rows(); ++r)
            for (std::size_t o = 0; o < net.biases[li].size(); ++o)
                net.biases[li][o] -= net.learningRate * grad.at(r, o);
        grad = std::move(din);
    }
    return loss;
}

/** Every weight and bias of @p net has @p ref's bytes. */
void
expectSameParameters(const Dnn &net, const ReferenceNet &ref)
{
    for (std::size_t l = 0; l < net.numLayers(); ++l) {
        const auto &w = net.layerWeights(l).data();
        ASSERT_EQ(w.size(), ref.weights[l].data().size());
        EXPECT_EQ(std::memcmp(w.data(), ref.weights[l].data().data(),
                              w.size() * sizeof(float)),
                  0)
            << "layer " << l << " weights";
        const auto b = net.layerBias(l);
        ASSERT_EQ(b.size(), ref.biases[l].size());
        EXPECT_EQ(std::memcmp(b.data(), ref.biases[l].data(),
                              b.size() * sizeof(float)),
                  0)
            << "layer " << l << " bias";
    }
}

/** The word the blocked GEMM's dispatch reports for @p cap. */
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

TEST(Dnn, OutputShapeAndNormalization)
{
    DnnConfig cfg;
    cfg.inputDim = 4;
    cfg.hidden = {8};
    cfg.outputDim = 3;
    Dnn net(cfg);

    Matrix x(5, 4);
    const Matrix logp = net.forward(x);
    ASSERT_EQ(logp.rows(), 5u);
    ASSERT_EQ(logp.cols(), 3u);
    for (std::size_t r = 0; r < 5; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < 3; ++c)
            sum += std::exp(double(logp.at(r, c)));
        ASSERT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Dnn, ParameterCount)
{
    DnnConfig cfg;
    cfg.inputDim = 10;
    cfg.hidden = {20, 30};
    cfg.outputDim = 5;
    Dnn net(cfg);
    // (10*20+20) + (20*30+30) + (30*5+5) = 220 + 630 + 155.
    EXPECT_EQ(net.numParameters(), 1005u);
    EXPECT_EQ(net.macsPerFrame(), 10u * 20 + 20 * 30 + 30 * 5);
}

TEST(Dnn, DeterministicInitialization)
{
    DnnConfig cfg;
    cfg.inputDim = 4;
    cfg.hidden = {8};
    cfg.outputDim = 2;
    cfg.seed = 77;
    Dnn a(cfg), b(cfg);
    Matrix x(3, 4);
    for (std::size_t i = 0; i < x.data().size(); ++i)
        x.data()[i] = float(i);
    const Matrix pa = a.forward(x);
    const Matrix pb = b.forward(x);
    for (std::size_t i = 0; i < pa.data().size(); ++i)
        ASSERT_EQ(pa.data()[i], pb.data()[i]);
}

TEST(Dnn, TrainingReducesLoss)
{
    DnnConfig cfg;
    cfg.inputDim = 4;
    cfg.hidden = {16};
    cfg.outputDim = 2;
    cfg.learningRate = 0.1f;
    Dnn net(cfg);

    Matrix x;
    std::vector<std::uint32_t> y;
    makeBlobs(x, y, 256, 3);

    const float first = net.trainStep(x, y);
    float last = first;
    for (int e = 0; e < 40; ++e)
        last = net.trainStep(x, y);
    EXPECT_LT(last, first * 0.5f);
}

TEST(Dnn, LearnsSeparableBlobs)
{
    DnnConfig cfg;
    cfg.inputDim = 4;
    cfg.hidden = {16};
    cfg.outputDim = 2;
    cfg.learningRate = 0.1f;
    Dnn net(cfg);

    Matrix x;
    std::vector<std::uint32_t> y;
    makeBlobs(x, y, 512, 5);
    for (int e = 0; e < 60; ++e)
        net.trainStep(x, y);

    Matrix xt;
    std::vector<std::uint32_t> yt;
    makeBlobs(xt, yt, 512, 6);  // held-out
    EXPECT_GT(net.accuracy(xt, yt), 0.95f);
}

TEST(Dnn, MultiClassLearning)
{
    // Four corners of a 2-D square, one class each.
    DnnConfig cfg;
    cfg.inputDim = 2;
    cfg.hidden = {32, 16};
    cfg.outputDim = 4;
    cfg.learningRate = 0.08f;
    Dnn net(cfg);

    Rng rng(9);
    auto sample = [&](Matrix &x, std::vector<std::uint32_t> &y,
                      std::size_t n) {
        x = Matrix(n, 2);
        y.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto cls = std::uint32_t(rng.below(4));
            y[i] = cls;
            const double cx = (cls & 1) ? 2.0 : -2.0;
            const double cy = (cls & 2) ? 2.0 : -2.0;
            x.at(i, 0) = float(rng.gaussian(cx, 0.6));
            x.at(i, 1) = float(rng.gaussian(cy, 0.6));
        }
    };

    Matrix x;
    std::vector<std::uint32_t> y;
    for (int e = 0; e < 80; ++e) {
        sample(x, y, 256);
        net.trainStep(x, y);
    }
    sample(x, y, 1024);
    EXPECT_GT(net.accuracy(x, y), 0.9f);
}

TEST(Dnn, AccuracyOfUntrainedNetIsChance)
{
    DnnConfig cfg;
    cfg.inputDim = 4;
    cfg.hidden = {8};
    cfg.outputDim = 2;
    Dnn net(cfg);
    Matrix x;
    std::vector<std::uint32_t> y;
    makeBlobs(x, y, 2048, 8);
    const float acc = net.accuracy(x, y);
    EXPECT_GT(acc, 0.2f);
    EXPECT_LT(acc, 0.8f);
}

TEST(DnnDeath, AccuracyNeedsOneLabelPerRow)
{
    DnnConfig cfg;
    cfg.inputDim = 4;
    cfg.hidden = {8};
    cfg.outputDim = 2;
    const Dnn net(cfg);
    const Matrix x(5, 4);
    const std::vector<std::uint32_t> y(4, 0);
    EXPECT_DEATH(net.accuracy(x, y), "one label per input row");
}

TEST(DnnDeath, TrainStepNeedsAtLeastOneRow)
{
    DnnConfig cfg;
    cfg.inputDim = 4;
    cfg.hidden = {8};
    cfg.outputDim = 2;
    Dnn net(cfg);
    EXPECT_DEATH(net.trainStep(Matrix(0, 4), {}), "empty training batch");
}

/** Training pinned to each blocked GEMM kernel in turn. */
class DnnTrainKernel : public ::testing::TestWithParam<cpu::SimdCap>
{
};

TEST_P(DnnTrainKernel, TrainStepMatchesReferenceLoopsBitForBit)
{
    const cpu::SimdCap cap = GetParam();
    if (cap == cpu::SimdCap::Avx512 && !cpu::cpuSupportsAvx512())
        GTEST_SKIP() << "CPU lacks AVX-512F: the avx512 kernel is "
                        "not tested on this host";
    if (cap == cpu::SimdCap::Avx2 && !cpu::cpuSupportsAvx2())
        GTEST_SKIP() << "CPU lacks AVX2: the avx2 kernel is not "
                        "tested on this host";
    // The kernel is resolved on every product, so the cap must hold
    // for the whole training run.
    const SimdCapGuard guard(cap);
    ASSERT_EQ(cpu::simdLevel(), kernelName(cap));

    // Widths below, at and either side of the 32-lane panel; batches
    // of one row, of fewer and more rows than one 8- or 3-row kernel
    // pass, and across 32-row blocks.  Every other batch repeats one
    // positive row at positive scales, so a hidden unit that is shut
    // for one row is shut for all: whole gradient columns are zero.
    std::size_t dead = 0;
    std::uint64_t seed = 1;
    for (const std::size_t width : {5, 31, 33, 65}) {
        DnnConfig cfg;
        cfg.inputDim = width;
        cfg.hidden = {width, width};
        cfg.outputDim = 6;
        cfg.learningRate = 0.1f;
        cfg.seed = 300 + width;
        Dnn net(cfg);
        ReferenceNet ref{Dnn(cfg)};
        expectSameParameters(net, ref);
        for (const std::size_t rows : {1, 7, 9, 33, 64}) {
            for (const bool repeated : {false, true}) {
                Rng rng(seed++);
                Matrix x(rows, width);
                std::vector<std::uint32_t> y(rows);
                std::vector<float> base(width);
                for (float &v : base)
                    v = float(rng.uniform(0.1, 1.0));
                for (std::size_t r = 0; r < rows; ++r) {
                    const float scale = float(rng.uniform(1.0, 2.0));
                    for (std::size_t c = 0; c < width; ++c)
                        x.at(r, c) = repeated
                                         ? scale * base[c]
                                         : float(rng.uniform(-2.0, 2.0));
                    y[r] = std::uint32_t(rng.below(cfg.outputDim));
                }
                SCOPED_TRACE("width " + std::to_string(width) + ", rows " +
                             std::to_string(rows) +
                             (repeated ? ", repeated row" : ""));
                const float loss = net.trainStep(x, y);
                const float want = referenceStep(ref, x, y, dead);
                EXPECT_EQ(std::memcmp(&loss, &want, sizeof loss), 0)
                    << loss << " vs " << want;
                expectSameParameters(net, ref);
                if (HasFailure())
                    return;
            }
        }
    }
    EXPECT_GT(dead, 0u) << "no batch shut a hidden unit for every row";
}

INSTANTIATE_TEST_SUITE_P(
    Dnn, DnnTrainKernel,
    ::testing::Values(cpu::SimdCap::Scalar, cpu::SimdCap::Avx2,
                      cpu::SimdCap::Avx512),
    [](const ::testing::TestParamInfo<cpu::SimdCap> &info) {
        return kernelName(info.param);
    });
