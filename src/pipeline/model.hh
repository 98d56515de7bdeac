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
 *    the acoustic::Backend entry points (immutable packed weights,
 *    caller-provided scratch) and frontend::Synthesizer::synthesize
 *    are const and use only local scratch, so concurrent calls
 *    through this model are safe.
 *  - The caller must keep the Wfst (and the model) alive for as long
 *    as any session uses them.
 */

#ifndef ASR_PIPELINE_MODEL_HH
#define ASR_PIPELINE_MODEL_HH

#include <cstdint>
#include <memory>
#include <span>
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

    /**
     * Acoustic scoring backend (see acoustic/backend.hh).  Blocked is
     * the default: bit-identical to Reference, several times faster.
     * Int8 trades bounded score error for 4x smaller weight traffic.
     */
    acoustic::BackendKind acousticBackend =
        acoustic::BackendKind::Blocked;

    std::uint64_t seed = 1234;
};

/** Shared immutable model state: WFST + front-end + acoustic model. */
class AsrModel
{
  public:
    /**
     * Build the model over @p net.  Training data for the acoustic
     * model is synthesized from the phoneme voices; the DNN is
     * trained here (a few seconds at demo scale).
     */
    AsrModel(const wfst::Wfst &net, const AsrSystemConfig &cfg);

    const wfst::Wfst &net() const { return netRef; }
    const AsrSystemConfig &config() const { return cfg; }
    const frontend::Mfcc &mfcc() const { return mfcc_; }
    const acoustic::Dnn &dnn() const { return dnn_; }

    /** The configured acoustic scoring backend over the trained DNN. */
    const acoustic::Backend &backend() const { return *backend_; }

    /** Batch scorer over the configured backend. */
    const acoustic::DnnScorer &scorer() const { return *scorer_; }

    /** The synthesizer (shared voices) for generating test audio. */
    const frontend::Synthesizer &synthesizer() const { return synth; }

    /** Frames of left/right DNN context. */
    unsigned contextFrames() const { return cfg.contextFrames; }

    /** Training-set frame classification accuracy of the DNN. */
    float acousticModelAccuracy() const { return trainAccuracy; }

    /**
     * Score one spliced feature row ((2*context+1)*numCeps values).
     * Row-independent and bit-identical to the corresponding row of
     * scorer().score() over the whole utterance, which is what makes
     * streaming and batch decoding agree exactly.
     * @return log-likelihoods indexed by phoneme id (slot 0 unused)
     */
    std::vector<float>
    scoreSplicedFrame(const std::vector<float> &spliced) const;

    /**
     * Allocation-free variant of scoreSplicedFrame for streaming
     * sessions: writes log-likelihoods into @p likes (numPhonemes + 1
     * entries, slot 0 set to kLogZero) reusing @p scratch across
     * calls.  Safe to call concurrently with distinct scratch
     * objects.
     */
    void scoreSplicedFrameInto(std::span<const float> spliced,
                               std::span<float> likes,
                               acoustic::FrameScratch &scratch) const;

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
