/**
 * @file
 * The shared immutable half of the ASR system.
 *
 * An AsrModel bundles everything decode sessions share: the WFST,
 * the MFCC front-end tables, the trained DNN acoustic model, and the
 * synthesizer voices.  Training happens once at construction; after
 * that every member is const and every method is safe to call from
 * any number of threads concurrently (see the thread-safety contract
 * below).  Mutable per-utterance search state lives in the decoders,
 * which each session owns privately (server::StreamingSession), so a
 * whole fleet of concurrent sessions needs exactly one AsrModel.
 *
 * Thread-safety contract
 * ----------------------
 *  - AsrModel performs no mutation after the constructor returns:
 *    all accessors are const and touch only immutable state.
 *  - The referenced Wfst is immutable by construction.
 *  - frontend::Mfcc::compute/computeFrame, acoustic::Dnn::forward,
 *    acoustic::Backend::scoreBatch (immutable packed weights) and
 *    frontend::Synthesizer::synthesize are const and use only local
 *    scratch, so concurrent calls through this model are safe.
 *  - The caller must keep the Wfst (and the model) alive for as long
 *    as any session uses them.
 */

#ifndef ASR_PIPELINE_MODEL_HH
#define ASR_PIPELINE_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "acoustic/backend.hh"
#include "acoustic/dnn.hh"
#include "acoustic/scorer.hh"
#include "frontend/audio.hh"
#include "frontend/mfcc.hh"
#include "wfst/wfst.hh"

namespace asr::pipeline {

/** Configuration of the end-to-end system. */
struct AsrSystemConfig
{
    unsigned numPhonemes = 24;     //!< demo-scale phoneme inventory
    unsigned contextFrames = 2;    //!< DNN input context (+-2)
    std::vector<std::size_t> hiddenLayers = {96, 96};
    unsigned trainUtterPerPhoneme = 40;  //!< training segments
    unsigned trainEpochs = 30;
    float beam = 14.0f;
    std::uint64_t seed = 1234;
};

/** Shared immutable model state: WFST + front-end + acoustic model. */
class AsrModel
{
  public:
    /**
     * Build the model over @p net.  Training data for the acoustic
     * model is synthesized from the phoneme voices; the DNN is
     * trained here, in mini-batches of 64 frames (or of the whole set
     * when it has fewer) on the blocked backend's panel kernel --
     * about half a second at the default scale on one AVX-512 core.
     */
    AsrModel(const wfst::Wfst &net, const AsrSystemConfig &cfg);

    const wfst::Wfst &net() const { return netRef; }
    const AsrSystemConfig &config() const { return cfg; }
    const frontend::Mfcc &mfcc() const { return mfcc_; }
    const acoustic::Dnn &dnn() const { return dnn_; }

    /** The blocked scoring backend over the trained DNN. */
    const acoustic::Backend &backend() const { return *backend_; }

    /** Batch scorer over backend(). */
    const acoustic::DnnScorer &scorer() const { return *scorer_; }

    /** The synthesizer (shared voices) for generating test audio. */
    const frontend::Synthesizer &synthesizer() const { return synth; }

    /** Frames of left/right DNN context. */
    unsigned contextFrames() const { return cfg.contextFrames; }

    /** Training-set frame classification accuracy of the DNN. */
    float acousticModelAccuracy() const { return trainAccuracy; }

  private:
    void trainAcousticModel();

    const wfst::Wfst &netRef;
    AsrSystemConfig cfg;
    frontend::Synthesizer synth;
    frontend::Mfcc mfcc_;
    acoustic::Dnn dnn_;
    std::unique_ptr<acoustic::Backend> backend_;
    std::unique_ptr<acoustic::DnnScorer> scorer_;
    float trainAccuracy = 0.0f;
};

} // namespace asr::pipeline

#endif // ASR_PIPELINE_MODEL_HH
