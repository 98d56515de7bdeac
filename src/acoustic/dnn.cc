#include "acoustic/dnn.hh"

#include <cmath>

#include "acoustic/backend.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace asr::acoustic {

namespace {

/** @p m transposed. */
Matrix
transposed(const Matrix &m)
{
    Matrix t(m.cols(), m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            t.at(c, r) = m.at(r, c);
    return t;
}

} // namespace

Dnn::Dnn(const DnnConfig &config)
    : cfg(config)
{
    ASR_ASSERT(cfg.inputDim > 0 && cfg.outputDim > 0,
               "degenerate DNN shape");
    Rng rng(cfg.seed);

    std::vector<std::size_t> dims;
    dims.push_back(cfg.inputDim);
    for (auto h : cfg.hidden)
        dims.push_back(h);
    dims.push_back(cfg.outputDim);

    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
        Layer layer;
        layer.weights = Matrix(dims[l + 1], dims[l]);
        // He initialization keeps ReLU activations well scaled.
        const float scale = std::sqrt(2.0f / float(dims[l]));
        for (float &w : layer.weights.data())
            w = float(rng.gaussian()) * scale;
        layer.bias.assign(dims[l + 1], 0.0f);
        layers.push_back(std::move(layer));
    }
}

Matrix
Dnn::forward(const Matrix &input) const
{
    ASR_ASSERT(input.cols() == cfg.inputDim,
               "DNN input dim %zu != %zu", input.cols(), cfg.inputDim);
    Matrix x = matmulTransposed(input, layers[0].weights);
    addRowBias(x, layers[0].bias);
    for (std::size_t l = 1; l < layers.size(); ++l) {
        reluInPlace(x);
        x = matmulTransposed(x, layers[l].weights);
        addRowBias(x, layers[l].bias);
    }
    logSoftmaxRows(x);
    return x;
}

Matrix
Dnn::logits(const Matrix &input, std::vector<Matrix> *hidden) const
{
    ASR_ASSERT(input.cols() == cfg.inputDim,
               "DNN input dim %zu != %zu", input.cols(), cfg.inputDim);
    Matrix x = blockedGemm(input, layers[0].weights, GemmRhs::Transposed,
                           layers[0].bias);
    for (std::size_t l = 1; l < layers.size(); ++l) {
        reluInPlace(x);
        Matrix y = blockedGemm(x, layers[l].weights, GemmRhs::Transposed,
                               layers[l].bias);
        if (hidden)
            hidden->push_back(std::move(x));
        x = std::move(y);
    }
    return x;
}

float
Dnn::trainStep(const Matrix &input,
               const std::vector<std::uint32_t> &labels)
{
    ASR_ASSERT(input.rows() > 0, "empty training batch");
    ASR_ASSERT(labels.size() == input.rows(),
               "one label per input row required");

    std::vector<Matrix> hidden;
    Matrix logp = logits(input, &hidden);
    logSoftmaxRows(logp);

    // Softmax + cross-entropy gradient: p - onehot.
    const float batch = float(input.rows());
    float loss = 0.0f;
    Matrix grad(logp.rows(), logp.cols());
    for (std::size_t r = 0; r < logp.rows(); ++r) {
        ASR_ASSERT(labels[r] < logp.cols(), "label out of range");
        loss -= logp.at(r, labels[r]);
        auto grow = grad.row(r);
        const auto lrow = logp.row(r);
        for (std::size_t c = 0; c < grow.size(); ++c)
            grow[c] = std::exp(lrow[c]) / batch;
        grow[labels[r]] -= 1.0f / batch;
    }
    loss /= batch;

    // Backprop through the layers.
    for (std::size_t li = layers.size(); li-- > 0;) {
        Layer &layer = layers[li];
        const Matrix &in = li > 0 ? hidden[li - 1] : input;

        // Gradient wrt the (transposed) weights: grad^T * in, each
        // element summed over the batch rows in order.
        const Matrix dw =
            blockedGemm(transposed(grad), in, GemmRhs::AsStored);

        // Gradient wrt the input of this layer (for the next step).
        Matrix din;
        if (li > 0) {
            din = blockedGemm(grad, layer.weights, GemmRhs::AsStored);
            // ReLU derivative of the producing layer's output.
            for (std::size_t r = 0; r < din.rows(); ++r) {
                auto drow = din.row(r);
                const auto prow = in.row(r);
                for (std::size_t c = 0; c < drow.size(); ++c)
                    if (prow[c] <= 0.0f)
                        drow[c] = 0.0f;
            }
        }

        // SGD update.
        for (std::size_t i = 0; i < dw.data().size(); ++i)
            layer.weights.data()[i] -=
                cfg.learningRate * dw.data()[i];
        for (std::size_t r = 0; r < grad.rows(); ++r) {
            const auto grow = grad.row(r);
            for (std::size_t o = 0; o < layer.bias.size(); ++o)
                layer.bias[o] -= cfg.learningRate * grow[o];
        }

        grad = std::move(din);
    }
    return loss;
}

float
Dnn::accuracy(const Matrix &input,
              const std::vector<std::uint32_t> &labels) const
{
    ASR_ASSERT(labels.size() == input.rows(),
               "one label per input row required");
    Matrix logp = logits(input, nullptr);
    logSoftmaxRows(logp);
    std::size_t correct = 0;
    for (std::size_t r = 0; r < logp.rows(); ++r) {
        const auto row = logp.row(r);
        std::size_t best = 0;
        for (std::size_t c = 1; c < row.size(); ++c)
            if (row[c] > row[best])
                best = c;
        if (best == labels[r])
            ++correct;
    }
    return input.rows() ? float(correct) / float(input.rows()) : 0.0f;
}

std::size_t
Dnn::numParameters() const
{
    std::size_t n = 0;
    for (const auto &l : layers)
        n += l.weights.data().size() + l.bias.size();
    return n;
}

std::uint64_t
Dnn::macsPerFrame() const
{
    std::uint64_t n = 0;
    for (const auto &l : layers)
        n += std::uint64_t(l.weights.rows()) * l.weights.cols();
    return n;
}

} // namespace asr::acoustic
