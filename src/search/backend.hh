/**
 * @file
 * Pluggable Viterbi-search backends.
 *
 * The same seam acoustic/backend.hh cut for DNN scoring, applied to
 * the search side: everything that turns per-frame acoustic
 * log-likelihoods into a decoded word sequence goes through a
 * search::Backend with the streaming shape every engine already
 * speaks (streamBegin / streamFrame / streamPartial / streamFinish).
 * Backends are selected by name from a fixed table, so the server
 * layer and the api::Engine carry one string knob
 * (server::SessionKnobs::searchBackend) instead of a bool-per-engine.
 *
 * The backends:
 *  - "viterbi"  decoder::ViterbiDecoder -- the optimized TokenStore
 *               software search (epoch-tagged hashes, arena GC);
 *               the production CPU path and the default.
 *  - "baseline" decoder::BaselineViterbiDecoder -- the frozen
 *               general-container decoder (the paper's measured CPU
 *               platform and the A/B oracle).
 *  - "accel"    accel::Accelerator -- the cycle-level accelerator
 *               model; BackendConfig::runTiming selects whether the
 *               cycle simulation runs per frame (results never
 *               depend on it).
 *
 * Determinism contract: every backend must implement the
 * shared search semantics of viterbi.hh (pruning rule, epsilon
 * discipline, insertion-order winner tie-break) so word sequences
 * and scores are bit-identical across backends for any beam /
 * maxActive configuration -- the equivalence suite sweeps exactly
 * that.  decode() is definitionally streamBegin + streamFrame per
 * frame + streamFinish, so batch and streaming use are bit-identical
 * for every backend by construction.
 *
 * Thread safety: a Backend instance is mutable per-utterance state;
 * each session owns one privately.  The name lookups below read only
 * the constant table and are safe from any thread.
 */

#ifndef ASR_SEARCH_BACKEND_HH
#define ASR_SEARCH_BACKEND_HH

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "accel/stats.hh"
#include "acoustic/likelihoods.hh"
#include "decoder/result.hh"
#include "wfst/wfst.hh"

namespace asr::search {

/** Knobs a backend is constructed with (fixed per utterance). */
struct BackendConfig
{
    /**
     * Beam parameters shared by every search implementation.
     * arenaGcWatermark only affects the software TokenStore decoder;
     * the others ignore it.
     */
    decoder::DecoderConfig decoder;

    /**
     * Run the cycle-level simulation per frame ("accel" only; the
     * timing model cannot change results, see accel/accelerator.hh).
     */
    bool runTiming = false;
};

/** One streaming Viterbi search over a WFST. */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** The name this backend was created under. */
    virtual std::string_view name() const = 0;

    /** Start a streaming utterance (resets per-utterance state). */
    virtual void streamBegin() = 0;

    /**
     * Decode one 10 ms frame.
     * @param frame log-likelihoods indexed by phoneme id
     *              (slot 0 = epsilon, unused)
     */
    virtual void streamFrame(std::span<const float> frame) = 0;

    /**
     * Best word sequence so far (partial hypothesis; no closure).
     * The reference stays valid until the next streaming call on
     * this backend.
     */
    virtual const std::vector<wfst::WordId> &streamPartial() = 0;

    /** Close the utterance: epsilon-close, pick best, backtrack. */
    virtual decoder::DecodeResult streamFinish() = 0;

    /**
     * Fill @p out with the accelerator's cycle-level statistics.
     * @return false for backends without a timing model (out is
     *         untouched)
     */
    virtual bool
    accelStats(accel::AccelStats &out) const
    {
        (void)out;
        return false;
    }

    /**
     * Decode one utterance worth of acoustic scores: exactly
     * streamBegin + streamFrame per frame + streamFinish, so batch
     * and streaming results are bit-identical for every backend.
     */
    decoder::DecodeResult
    decode(const acoustic::AcousticLikelihoods &scores);
};

// ---------------------------------------------------------------------------
// Lookup by name (a closed set, like acoustic::BackendKind, but keyed
// by the string the session knobs carry).
// ---------------------------------------------------------------------------

/** Sorted names of every backend: "accel", "baseline", "viterbi". */
std::vector<std::string> registeredBackendNames();

/** @return true when @p name is one of the backends. */
bool isBackendRegistered(std::string_view name);

/**
 * Diagnostic for an unresolvable @p name, listing the backends -- the
 * one error message every entry point (createBackend,
 * api::EngineOptions::validate) reports so a typo always shows the
 * valid choices.
 */
std::string unknownBackendMessage(std::string_view name);

/**
 * Create the backend named @p name.
 * @return nullptr when @p name is not a backend
 */
std::unique_ptr<Backend> tryCreateBackend(std::string_view name,
                                          const wfst::Wfst &net,
                                          const BackendConfig &cfg);

/** As tryCreateBackend, but fatal (listing the names) on unknown. */
std::unique_ptr<Backend> createBackend(std::string_view name,
                                       const wfst::Wfst &net,
                                       const BackendConfig &cfg);

} // namespace asr::search

#endif // ASR_SEARCH_BACKEND_HH
