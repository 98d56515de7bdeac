#include "server/batch_scorer.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "acoustic/backend.hh"
#include "common/logging.hh"
#include "common/units.hh"

namespace asr::server {

BatchScorer::BatchScorer(const pipeline::AsrModel &model,
                         Fanout fanout)
    : model(model), fanout(std::move(fanout))
{
    ASR_ASSERT(this->fanout.parts < 2 || this->fanout.run,
               "a fanout of %zu parts needs a run function",
               this->fanout.parts);
}

std::size_t
BatchScorer::score(std::span<StreamingSession *const> sessions)
{
    bases_.resize(sessions.size());
    rows_.resize(sessions.size());
    totalRows = 0;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        bases_[i] = totalRows;
        rows_[i] = sessions[i] ? sessions[i]->pendingRows() : 0;
        totalRows += rows_[i];
    }
    forwardSeconds = 0.0;
    if (totalRows == 0)
        return 0;

    const auto t0 = std::chrono::steady_clock::now();
    const acoustic::Backend &backend = model.backend();
    acoustic::Matrix input(totalRows, backend.inputDim());
    for (std::size_t i = 0; i < sessions.size(); ++i)
        if (rows_[i] > 0)
            sessions[i]->exportPending(input, bases_[i]);

    // Slab s covers row blocks [blocks*s/slabs, blocks*(s+1)/slabs):
    // whole blocks only, so the slabs together make exactly the
    // weight passes of the whole batch.
    const std::size_t blocks =
        (totalRows + acoustic::kRowBlock - 1) / acoustic::kRowBlock;
    const std::size_t slabs = std::min(fanout.parts, blocks);
    if (slabs < 2) {
        scores_ = backend.scoreBatch(input);
    } else {
        scores_ = acoustic::Matrix(totalRows, backend.outputDim());
        const std::function<void(std::size_t)> scoreSlab =
            [&](std::size_t s) {
                const std::size_t r0 =
                    acoustic::kRowBlock * (blocks * s / slabs);
                const std::size_t r1 = std::min(
                    totalRows,
                    acoustic::kRowBlock * (blocks * (s + 1) / slabs));
                acoustic::Matrix slab(r1 - r0, backend.inputDim());
                std::copy_n(input.row(r0).data(), slab.data().size(),
                            slab.data().begin());
                const acoustic::Matrix slabScores =
                    backend.scoreBatch(slab);
                std::copy(slabScores.data().begin(),
                          slabScores.data().end(),
                          scores_.row(r0).data());
            };
        fanout.run(slabs, scoreSlab);
    }
    forwardSeconds = secondsSince(t0);
    return totalRows;
}

double
BatchScorer::secondsShare(std::size_t i) const
{
    ASR_ASSERT(i < rows_.size(), "session index out of range");
    return totalRows > 0
               ? forwardSeconds * double(rows_[i]) / double(totalRows)
               : 0.0;
}

} // namespace asr::server
