#include "pipeline/model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace asr::pipeline {

namespace {

acoustic::DnnConfig
dnnConfigFor(const AsrSystemConfig &cfg,
             const frontend::MfccConfig &mfcc_cfg)
{
    acoustic::DnnConfig d;
    d.inputDim = std::size_t(2 * cfg.contextFrames + 1) *
                 mfcc_cfg.numCeps;
    d.hidden = cfg.hiddenLayers;
    d.outputDim = cfg.numPhonemes;
    d.seed = cfg.seed ^ 0x5eedull;
    return d;
}

} // namespace

AsrModel::AsrModel(const wfst::Wfst &net, const AsrSystemConfig &config)
    : netRef(net), cfg(config),
      synth(config.numPhonemes, 16000, config.seed),
      mfcc_(frontend::MfccConfig{}),
      dnn_(dnnConfigFor(config, mfcc_.config()))
{
    trainAcousticModel();
    backend_ = acoustic::Backend::create(acoustic::BackendKind::Blocked,
                                         dnn_);
    scorer_ = std::make_unique<acoustic::DnnScorer>(
        *backend_, cfg.contextFrames);
}

void
AsrModel::trainAcousticModel()
{
    // Build a labeled frame set by synthesizing each phoneme in
    // isolation and through short random sequences (coarticulation).
    Rng rng(cfg.seed ^ 0xdecafull);
    frontend::FeatureMatrix all_features;
    std::vector<std::uint32_t> labels;

    for (unsigned p = 1; p <= cfg.numPhonemes; ++p) {
        for (unsigned u = 0; u < cfg.trainUtterPerPhoneme; ++u) {
            // Lead-in phoneme adds context diversity.
            const auto lead =
                std::uint32_t(1 + rng.below(cfg.numPhonemes));
            const frontend::AudioSignal audio = synth.synthesize(
                {lead, p, p}, /*frames_per_phone=*/4);
            const frontend::FeatureMatrix feats = mfcc_.compute(audio);
            const frontend::FeatureMatrix spliced =
                frontend::spliceContext(feats, cfg.contextFrames);
            // The middle frames belong firmly to phoneme p.
            const std::size_t lo = spliced.size() / 2;
            const std::size_t hi = spliced.size() - 2;
            for (std::size_t f = lo; f < hi; ++f) {
                all_features.push_back(spliced[f]);
                labels.push_back(p - 1);
            }
        }
    }
    ASR_ASSERT(!all_features.empty(), "no training data synthesized");

    // Mini-batch SGD over shuffled frames.
    const std::size_t n = all_features.size();
    const std::size_t dim = all_features[0].size();
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;

    // A set smaller than one batch trains as one whole-set batch.
    const std::size_t batch = std::min<std::size_t>(64, n);
    for (unsigned epoch = 0; epoch < cfg.trainEpochs; ++epoch) {
        // Fisher-Yates with the deterministic RNG.
        for (std::size_t i = n; i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        for (std::size_t base = 0; base + batch <= n; base += batch) {
            acoustic::Matrix x(batch, dim);
            std::vector<std::uint32_t> y(batch);
            for (std::size_t r = 0; r < batch; ++r) {
                const std::size_t src = order[base + r];
                auto row = x.row(r);
                for (std::size_t c = 0; c < dim; ++c)
                    row[c] = all_features[src][c];
                y[r] = labels[src];
            }
            dnn_.trainStep(x, y);
        }
    }

    // Report training accuracy on a subsample.
    const std::size_t eval_n = std::min<std::size_t>(n, 2000);
    acoustic::Matrix x(eval_n, dim);
    std::vector<std::uint32_t> y(eval_n);
    for (std::size_t r = 0; r < eval_n; ++r) {
        const std::size_t src = order[r];
        auto row = x.row(r);
        for (std::size_t c = 0; c < dim; ++c)
            row[c] = all_features[src][c];
        y[r] = labels[src];
    }
    trainAccuracy = dnn_.accuracy(x, y);
}

} // namespace asr::pipeline
