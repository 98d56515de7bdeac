/**
 * @file
 * Cross-session batched DNN scoring (the paper's Sec. III-A insight
 * applied to serving): GEMM efficiency on a throughput device comes
 * from batch size, so instead of every session scoring its own
 * pending rows (StreamingSession::scorePending), api::Engine's
 * coordinator coalesces the pending spliced frames of *all* active
 * sessions into a single forward pass per tick.  Row r of
 * acoustic::Backend::scoreBatch depends only on input row r, so
 * this is free of numeric consequences on every backend: each
 * session's scores are bit-identical to an inline-scoring session's
 * no matter how frames are coalesced.
 *
 * A tick that gathers more than one acoustic::kRowBlock of rows is
 * scored as row slabs, one per Fanout part (the engine's coordinator
 * and stage workers), at the same time.  Each slab is a run of whole
 * row blocks, so the split pass reads every layer's weights as often
 * as the whole batch would, and because row r of scoreBatch depends
 * only on input row r, the split changes no bit on any backend.
 * Smaller ticks keep one scoreBatch call; a live tick on the engine's
 * frame clock carries about one row per open stream.
 *
 * Threading: one BatchScorer is driven by the engine's coordinator
 * from tick(), between the parallel advance/consume stages, never
 * from inside a stage (the engine's runStage is not reentrant).
 * Slab tasks read the gathered input and the const backend and write
 * disjoint rows of scores(); the fanout's completion orders those
 * writes before the consume stage reads them.  Sessions then read
 * their score rows back concurrently via consumePendingScores
 * (disjoint rows of the immutable result).
 */

#ifndef ASR_SERVER_BATCH_SCORER_HH
#define ASR_SERVER_BATCH_SCORER_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "acoustic/matrix.hh"
#include "pipeline/model.hh"
#include "server/session.hh"

namespace asr::server {

/**
 * How a BatchScorer spreads a split forward pass: run(count, fn)
 * calls fn(0) ... fn(count - 1), possibly at the same time, with
 * count <= parts, and returns once every call has finished.  The
 * default has one part, so the scorer never splits and never calls
 * run.
 */
struct Fanout
{
    std::size_t parts = 1;
    std::function<void(std::size_t count,
                       const std::function<void(std::size_t)> &fn)>
        run;
};

/** Assembles, scores and scatters one cross-session batch per tick. */
class BatchScorer
{
  public:
    explicit BatchScorer(const pipeline::AsrModel &model,
                         Fanout fanout = {});

    /**
     * Gather every pending spliced frame of @p sessions into one
     * batch matrix and score it: one backend forward pass, or row
     * slabs across the fanout when the batch spans more than one
     * row block.  Null entries (sessions retired mid-tick, e.g. a
     * cancelled live stream that never got one) contribute zero rows.
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

    /** Wall-clock of the last forward pass, split or not. */
    double lastForwardSeconds() const { return forwardSeconds; }

  private:
    const pipeline::AsrModel &model;
    Fanout fanout;
    acoustic::Matrix scores_;
    std::vector<std::size_t> bases_;
    std::vector<std::size_t> rows_;
    std::size_t totalRows = 0;
    double forwardSeconds = 0.0;
};

} // namespace asr::server

#endif // ASR_SERVER_BATCH_SCORER_HH
