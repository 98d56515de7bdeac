/**
 * @file
 * Cross-session batched DNN scoring (the paper's Sec. III-A insight
 * applied to serving): GEMM efficiency on a throughput device comes
 * from batch size, so instead of every session running its own
 * one-row forward per frame, api::Engine's coordinator coalesces
 * the pending spliced frames of *all* active sessions into a single
 * forward pass per tick.  The acoustic::Backend's row-wise
 * bit-identity contract makes this free of numeric consequences on
 * the float paths: each session's scores are bit-identical to inline
 * per-frame scoring no matter how frames are coalesced.
 *
 * Single-threaded by design: one BatchScorer is driven by the
 * engine's coordinator between the parallel advance/consume
 * stages; sessions read their score rows back concurrently via
 * consumePendingScores (disjoint rows of the immutable result).
 */

#ifndef ASR_SERVER_BATCH_SCORER_HH
#define ASR_SERVER_BATCH_SCORER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "acoustic/matrix.hh"
#include "pipeline/model.hh"
#include "server/session.hh"

namespace asr::server {

/** Assembles, scores and scatters one cross-session batch per tick. */
class BatchScorer
{
  public:
    explicit BatchScorer(const pipeline::AsrModel &model);

    /**
     * Gather every pending spliced frame of @p sessions into one
     * batch matrix and run a single backend forward pass.  Null
     * entries (sessions retired mid-tick, e.g. a cancelled live
     * stream that never got one) contribute zero rows.
     * @return total frames scored this tick (0 = no forward ran)
     */
    std::size_t score(std::span<StreamingSession *const> sessions);

    /** Log-softmax scores of the last tick (rows match the gather). */
    const acoustic::Matrix &scores() const { return scores_; }

    /** Row offset of sessions[i]'s frames within scores(). */
    std::size_t base(std::size_t i) const { return bases_[i]; }

    /**
     * sessions[i]'s share of the last forward's wall-clock
     * (proportional to its row count) for per-session accounting.
     */
    double secondsShare(std::size_t i) const;

    /** Wall-clock of the last batched forward pass. */
    double lastForwardSeconds() const { return forwardSeconds; }

  private:
    const pipeline::AsrModel &model;
    acoustic::Matrix scores_;
    std::vector<std::size_t> bases_;
    std::vector<std::size_t> rows_;
    std::size_t totalRows = 0;
    double forwardSeconds = 0.0;
};

} // namespace asr::server

#endif // ASR_SERVER_BATCH_SCORER_HH
