/**
 * @file
 * Feed-forward DNN acoustic model (the paper's first pipeline stage).
 *
 * In the paper's system the DNN runs on a GPU and converts MFCC
 * features into per-senone log-likelihoods.  We implement a compact
 * CPU version with enough machinery to *train* on the synthetic
 * phoneme data (mini-batch SGD with cross-entropy), so the full
 * pipeline -- audio, MFCC, DNN scores, Viterbi search -- runs end to
 * end and can be checked for recognition accuracy.
 */

#ifndef ASR_ACOUSTIC_DNN_HH
#define ASR_ACOUSTIC_DNN_HH

#include <cstdint>
#include <span>
#include <vector>

#include "acoustic/matrix.hh"

namespace asr::acoustic {

/** DNN shape and training hyper-parameters. */
struct DnnConfig
{
    std::size_t inputDim = 65;          //!< e.g. 13 MFCC x 5 frames
    std::vector<std::size_t> hidden = {128, 128};
    std::size_t outputDim = 64;         //!< number of senones
    float learningRate = 0.05f;
    std::uint64_t seed = 99;
};

/** A fully connected network with ReLU hidden layers. */
class Dnn
{
  public:
    explicit Dnn(const DnnConfig &config);

    /**
     * Forward pass on the naive reference loops (matmulTransposed,
     * addRowBias): the Reference backend, the oracle the other
     * backends are checked against.
     * @param input batch x inputDim
     * @return batch x outputDim log-softmax scores
     */
    Matrix forward(const Matrix &input) const;

    /**
     * One mini-batch SGD step with cross-entropy loss.  The forward
     * pass and both gradient products run on the blocked backend's
     * panel kernel (acoustic::blockedGemm) with the reference's
     * per-element arithmetic, so the weights come out the same on
     * every SIMD kernel.
     * @param input  batch x inputDim, at least one row
     * @param labels target class per row
     * @return mean cross-entropy loss of the batch (before update)
     */
    float trainStep(const Matrix &input,
                    const std::vector<std::uint32_t> &labels);

    /**
     * Fraction of rows whose argmax matches @p labels (one label per
     * row), scored through the same kernel as trainStep; the
     * log-probabilities are forward()'s bits.
     */
    float accuracy(const Matrix &input,
                   const std::vector<std::uint32_t> &labels) const;

    const DnnConfig &config() const { return cfg; }

    /** Total number of weights + biases (model size reporting). */
    std::size_t numParameters() const;

    /**
     * Multiply-accumulate operations of one forward frame; used by
     * the GPU analytical model to estimate DNN kernel time.
     */
    std::uint64_t macsPerFrame() const;

    // Read-only layer access so alternative inference backends
    // (acoustic::Backend implementations) can repack the trained
    // parameters without friending into the class.
    std::size_t numLayers() const { return layers.size(); }

    /** Layer @p l weight matrix, out x in (transposed storage). */
    const Matrix &
    layerWeights(std::size_t l) const
    {
        return layers[l].weights;
    }

    /** Layer @p l bias vector (out entries). */
    std::span<const float>
    layerBias(std::size_t l) const
    {
        return layers[l].bias;
    }

  private:
    struct Layer
    {
        Matrix weights;           //!< out x in (transposed storage)
        std::vector<float> bias;  //!< out
    };

    /**
     * Pre-softmax outputs through acoustic::blockedGemm.  When
     * @p hidden is given, it receives each hidden layer's ReLU output
     * (hidden[l] feeds layer l + 1) for backprop.
     */
    Matrix logits(const Matrix &input, std::vector<Matrix> *hidden) const;

    DnnConfig cfg;
    std::vector<Layer> layers;
};

} // namespace asr::acoustic

#endif // ASR_ACOUSTIC_DNN_HH
